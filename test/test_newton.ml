open Refnet_bigint
open Refnet_algebra

let big_list =
  Alcotest.testable (Fmt.Dump.list (fun fmt v -> Bigint.pp fmt v)) (List.equal Bigint.equal)

let of_l = List.map Bigint.of_int

let test_power_sums_direct () =
  (* values {1,2,3}: p1 = 6, p2 = 14, p3 = 36 *)
  Alcotest.check big_list "p1..p3" (of_l [ 6; 14; 36 ])
    (Newton.power_sums (of_l [ 1; 2; 3 ]) ~upto:3)

let test_elementary_direct () =
  (* values {1,2,3}: e1 = 6, e2 = 11, e3 = 6 *)
  Alcotest.check big_list "e1..e3" (of_l [ 6; 11; 6 ]) (Newton.elementary (of_l [ 1; 2; 3 ]))

let test_identity_roundtrip () =
  let values = of_l [ 2; 5; 7; 11 ] in
  let p = Newton.power_sums values ~upto:4 in
  Alcotest.check big_list "elementary via Newton" (Newton.elementary values)
    (Newton.elementary_of_power_sums p);
  Alcotest.check big_list "power sums back" p
    (Newton.power_sums_of_elementary (Newton.elementary values) ~upto:4)

let test_empty () =
  Alcotest.check big_list "empty e" [] (Newton.elementary_of_power_sums []);
  Alcotest.check big_list "empty p" [] (Newton.power_sums [] ~upto:0)

let test_power_sums_beyond_degree () =
  (* p_m for m above the number of values still follows the recurrence:
     3 + 4 = 7, 9 + 16 = 25, 27 + 64 = 91, 81 + 256 = 337. *)
  let values = of_l [ 3; 4 ] in
  Alcotest.check big_list "p1..p4" (of_l [ 7; 25; 91; 337 ])
    (Newton.power_sums_of_elementary (Newton.elementary values) ~upto:4)

(* The monic x^d - e_1 x^(d-1) + e_2 x^(d-2) - ... from p_1..p_d: the
   exact-integer form of the polynomial Power_sum.decode splits mod p. *)
let polynomial_from_power_sums p =
  let e = Array.of_list (Newton.elementary_of_power_sums p) in
  let d = Array.length e in
  Poly.of_coeffs
    (Array.init (d + 1) (fun i ->
         if i = d then Bigint.one
         else if (d - i) land 1 = 1 then Bigint.neg e.(d - i - 1)
         else e.(d - i - 1)))

let test_polynomial_from_power_sums () =
  let values = of_l [ 1; 4; 6 ] in
  let p = Newton.power_sums values ~upto:3 in
  let poly = polynomial_from_power_sums p in
  Alcotest.(check int) "degree" 3 (Poly.degree poly);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "root %s" (Bigint.to_string v))
        true
        (Bigint.is_zero (Poly.eval poly v)))
    values;
  Alcotest.(check bool) "5 is not a root" false (Bigint.is_zero (Poly.eval poly (Bigint.of_int 5)))

let gen_values =
  QCheck2.Gen.(
    bind (int_range 0 7) (fun d ->
        map
          (fun l ->
            List.sort_uniq compare (List.map (fun v -> 1 + (abs v mod 200)) l)
            |> List.map Bigint.of_int)
          (list_size (return d) int)))

let prop_newton_inverts =
  QCheck2.Test.make ~name:"elementary_of_power_sums inverts power_sums" ~count:300 gen_values
    (fun values ->
      let d = List.length values in
      let p = Newton.power_sums values ~upto:d in
      List.equal Bigint.equal (Newton.elementary values) (Newton.elementary_of_power_sums p))

let prop_poly_roots_are_values =
  QCheck2.Test.make ~name:"polynomial_from_power_sums has exactly the values as roots"
    ~count:300 gen_values (fun values ->
      let d = List.length values in
      let p = Newton.power_sums values ~upto:d in
      let poly = polynomial_from_power_sums p in
      Poly.equal poly (Poly.from_roots values)
      && List.for_all (fun v -> Bigint.is_zero (Poly.eval poly v)) values)

let prop_wright_injectivity =
  (* Theorem 4 (Wright): distinct sets have distinct power-sum vectors
     p_1..p_k for k at least the set size. *)
  QCheck2.Test.make ~name:"equal power sums imply equal sets (Wright)" ~count:300
    (QCheck2.Gen.pair gen_values gen_values) (fun (a, b) ->
      let k = max (List.length a) (List.length b) in
      let pa = Newton.power_sums a ~upto:k and pb = Newton.power_sums b ~upto:k in
      List.equal Bigint.equal pa pb = List.equal Bigint.equal a b)

let () =
  Alcotest.run "newton"
    [
      ( "unit",
        [
          Alcotest.test_case "power sums direct" `Quick test_power_sums_direct;
          Alcotest.test_case "elementary direct" `Quick test_elementary_direct;
          Alcotest.test_case "identity roundtrip" `Quick test_identity_roundtrip;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "beyond degree" `Quick test_power_sums_beyond_degree;
          Alcotest.test_case "polynomial from power sums" `Quick test_polynomial_from_power_sums;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_newton_inverts; prop_poly_roots_are_values; prop_wright_injectivity ] );
    ]
