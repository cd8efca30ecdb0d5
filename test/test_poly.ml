open Refnet_bigint
open Refnet_algebra

let poly = Alcotest.testable (fun fmt p -> Poly.pp fmt p) Poly.equal
let big = Alcotest.testable (fun fmt n -> Bigint.pp fmt n) Bigint.equal

let of_i = Bigint.of_int
let p_of l = Poly.of_coeffs (Array.of_list (List.map of_i l))

let test_degree_normalization () =
  Alcotest.(check int) "zero" (-1) (Poly.degree Poly.zero);
  Alcotest.(check int) "constant" 0 (Poly.degree Poly.one);
  Alcotest.(check int) "trailing zeros dropped" 1 (Poly.degree (p_of [ 1; 2; 0; 0 ]));
  Alcotest.check poly "constant zero collapses" Poly.zero (Poly.constant Bigint.zero)

let test_coeff_access () =
  let p = p_of [ 5; 0; 7 ] in
  Alcotest.check big "c0" (of_i 5) (Poly.coeff p 0);
  Alcotest.check big "c1" Bigint.zero (Poly.coeff p 1);
  Alcotest.check big "c2" (of_i 7) (Poly.coeff p 2);
  Alcotest.check big "beyond" Bigint.zero (Poly.coeff p 9)

let test_arith () =
  let p = p_of [ 1; 2 ] and q = p_of [ 3; -2 ] in
  Alcotest.check poly "add cancels" (p_of [ 4 ]) (Poly.add p q);
  Alcotest.check poly "sub" (p_of [ -2; 4 ]) (Poly.sub p q);
  (* (1 + 2x)(3 - 2x) = 3 + 4x - 4x^2 *)
  Alcotest.check poly "mul" (p_of [ 3; 4; -4 ]) (Poly.mul p q);
  Alcotest.check poly "mul by zero" Poly.zero (Poly.mul p Poly.zero);
  Alcotest.check poly "scale" (p_of [ 2; 4 ]) (Poly.scale (of_i 2) p)

let test_eval_horner () =
  (* p(x) = x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3) *)
  let p = p_of [ -6; 11; -6; 1 ] in
  List.iter
    (fun r -> Alcotest.check big (Printf.sprintf "root %d" r) Bigint.zero (Poly.eval p (of_i r)))
    [ 1; 2; 3 ];
  Alcotest.check big "p(0)" (of_i (-6)) (Poly.eval p Bigint.zero);
  Alcotest.check big "p(4)" (of_i 6) (Poly.eval p (of_i 4))

let test_from_roots () =
  let p = Poly.from_roots [ of_i 1; of_i 2; of_i 3 ] in
  Alcotest.check poly "expanded" (p_of [ -6; 11; -6; 1 ]) p;
  Alcotest.check poly "no roots" Poly.one (Poly.from_roots [])

let test_derivative () =
  Alcotest.check poly "d/dx (x^3 + 2x)" (p_of [ 2; 0; 3 ]) (Poly.derivative (p_of [ 0; 2; 0; 1 ]));
  Alcotest.check poly "constant" Poly.zero (Poly.derivative (p_of [ 9 ]))

let gen_roots =
  QCheck2.Gen.(
    bind (int_range 0 6) (fun d ->
        map
          (fun l -> List.sort_uniq compare (List.map (fun v -> 1 + (abs v mod 50)) l))
          (list_size (return d) int)))

let prop_from_roots_vanishes =
  QCheck2.Test.make ~name:"from_roots vanishes exactly on roots" ~count:200 gen_roots
    (fun roots ->
      let p = Poly.from_roots (List.map of_i roots) in
      List.init 52 (fun x -> x - 1)
      |> List.for_all (fun x -> Bigint.is_zero (Poly.eval p (of_i x)) = List.mem x roots))

let prop_mul_eval_homomorphism =
  QCheck2.Test.make ~name:"(pq)(x) = p(x)q(x)" ~count:200
    QCheck2.Gen.(triple gen_roots gen_roots (int_range (-20) 20))
    (fun (r1, r2, x) ->
      let p = Poly.from_roots (List.map of_i r1) and q = Poly.from_roots (List.map of_i r2) in
      let x = of_i x in
      Bigint.equal (Poly.eval (Poly.mul p q) x) (Bigint.mul (Poly.eval p x) (Poly.eval q x)))

let () =
  Alcotest.run "poly"
    [
      ( "unit",
        [
          Alcotest.test_case "degree/normalization" `Quick test_degree_normalization;
          Alcotest.test_case "coeff access" `Quick test_coeff_access;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "eval (Horner)" `Quick test_eval_horner;
          Alcotest.test_case "from_roots" `Quick test_from_roots;
          Alcotest.test_case "derivative" `Quick test_derivative;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_from_roots_vanishes; prop_mul_eval_homomorphism ] );
    ]
