open Refnet_bigint
open Refnet_algebra

let nat = Alcotest.testable (fun fmt v -> Nat.pp fmt v) Nat.equal

let test_encode_values () =
  let enc = Power_sum.encode ~k:3 [ 2; 5 ] in
  Alcotest.check nat "p1" (Nat.of_int 7) enc.(0);
  Alcotest.check nat "p2" (Nat.of_int 29) enc.(1);
  Alcotest.check nat "p3" (Nat.of_int 133) enc.(2)

let test_encode_empty () =
  let enc = Power_sum.encode ~k:2 [] in
  Alcotest.check nat "p1" Nat.zero enc.(0);
  Alcotest.check nat "p2" Nat.zero enc.(1)

let test_encode_guards () =
  Alcotest.check_raises "repeat" (Invalid_argument "Power_sum.encode: repeated id") (fun () ->
      ignore (Power_sum.encode ~k:3 [ 1; 1 ]));
  Alcotest.check_raises "non-positive" (Invalid_argument "Power_sum.encode: non-positive id")
    (fun () -> ignore (Power_sum.encode ~k:3 [ 0 ]));
  Alcotest.check_raises "too many" (Invalid_argument "Power_sum.encode: more ids than k")
    (fun () -> ignore (Power_sum.encode ~k:1 [ 1; 2 ]))

let test_encode_matches_vandermonde () =
  let a = Vandermonde.make ~k:4 ~n:20 in
  let ids = [ 3; 7; 20 ] in
  let via_matrix = Vandermonde.apply a ids in
  let direct = Power_sum.encode ~k:4 ids in
  Array.iteri
    (fun p v -> Alcotest.check nat (Printf.sprintf "coordinate %d" (p + 1)) v direct.(p))
    via_matrix

let test_subtract_is_removal () =
  let enc = Power_sum.encode ~k:3 [ 2; 5; 9 ] in
  let enc' = Power_sum.subtract enc ~id:5 ~upto:3 in
  let expected = Power_sum.encode ~k:3 [ 2; 9 ] in
  Array.iteri (fun p v -> Alcotest.check nat (Printf.sprintf "p%d" (p + 1)) v enc'.(p)) expected

let test_subtract_non_member () =
  (* Removing a non-member can underflow a coordinate — flagged. *)
  let enc = Power_sum.encode ~k:2 [ 1 ] in
  Alcotest.check_raises "underflow" (Invalid_argument "Power_sum.subtract: id not a member")
    (fun () -> ignore (Power_sum.subtract enc ~id:9 ~upto:2))

let test_decode_exact () =
  let enc = Power_sum.encode ~k:4 [ 4; 17; 23; 42 ] in
  Alcotest.(check (option (list int))) "decoded" (Some [ 4; 17; 23; 42 ])
    (Power_sum.decode ~n:64 ~deg:4 enc)

let test_decode_prefix () =
  (* A degree-2 vertex decodes from the first two coordinates even when
     the message carries more. *)
  let enc = Power_sum.encode ~k:5 [ 6; 13 ] in
  Alcotest.(check (option (list int))) "decoded" (Some [ 6; 13 ])
    (Power_sum.decode ~n:20 ~deg:2 enc)

let test_decode_empty () =
  Alcotest.(check (option (list int))) "empty" (Some [])
    (Power_sum.decode ~n:10 ~deg:0 (Power_sum.encode ~k:2 []))

let test_decode_malformed () =
  (* p1 = 5, p2 = 7 cannot be the power sums of two distinct positive
     integers (5 = a+b, 7 = a^2+b^2 has no integer solution). *)
  let enc = [| Nat.of_int 5; Nat.of_int 7 |] in
  Alcotest.(check (option (list int))) "rejected" None (Power_sum.decode ~n:10 ~deg:2 enc)

let test_decode_bad_degree () =
  Alcotest.check_raises "deg > k" (Invalid_argument "Power_sum.decode: bad degree") (fun () ->
      ignore (Power_sum.decode ~n:10 ~deg:3 (Power_sum.encode ~k:2 [])))

let test_table_matches_newton () =
  let n = 12 and k = 3 in
  let table = Power_sum.Table.build ~n ~k in
  (* Every subset of size <= k decodes identically via both decoders. *)
  let rec subsets first remaining acc f =
    if remaining = 0 then f (List.rev acc)
    else
      for i = first to n - remaining + 1 do
        subsets (i + 1) (remaining - 1) (i :: acc) f
      done
  in
  for d = 0 to k do
    subsets 1 d [] (fun ids ->
        let enc = Power_sum.encode ~k ids in
        Alcotest.(check (option (list int)))
          (Printf.sprintf "table [%s]" (String.concat ";" (List.map string_of_int ids)))
          (Some ids)
          (Power_sum.Table.lookup table enc ~deg:d);
        Alcotest.(check (option (list int)))
          (Printf.sprintf "newton [%s]" (String.concat ";" (List.map string_of_int ids)))
          (Some ids)
          (Power_sum.decode ~n ~deg:d enc))
  done

let test_table_entries () =
  (* n=5, k=2: C(5,0) + C(5,1) + C(5,2) = 1 + 5 + 10. *)
  let table = Power_sum.Table.build ~n:5 ~k:2 in
  Alcotest.(check int) "entries" 16 (Power_sum.Table.entries table)

let gen_subset =
  QCheck2.Gen.(
    bind (int_range 1 128) (fun n ->
        bind (int_range 0 6) (fun d ->
            map
              (fun l ->
                let ids =
                  List.sort_uniq compare (List.map (fun v -> 1 + (abs v mod n)) l)
                in
                (n, ids))
              (list_size (return (min d n)) int))))

let prop_decode_inverts_encode =
  QCheck2.Test.make ~name:"decode . encode = id" ~count:300 gen_subset (fun (n, ids) ->
      let k = max 1 (List.length ids) in
      let enc = Power_sum.encode ~k ids in
      Power_sum.decode ~n ~deg:(List.length ids) enc = Some ids)

let prop_subtract_then_decode =
  QCheck2.Test.make ~name:"subtract member then decode" ~count:300 gen_subset
    (fun (n, ids) ->
      QCheck2.assume (ids <> []);
      let k = List.length ids in
      let enc = Power_sum.encode ~k ids in
      let victim = List.nth ids (List.length ids / 2) in
      let enc' = Power_sum.subtract enc ~id:victim ~upto:k in
      let rest = List.filter (fun i -> i <> victim) ids in
      Power_sum.decode ~n ~deg:(List.length rest) enc' = Some rest)

let test_decode_repeated_root () =
  (* The multiset {3, 3}: b1 = 6, b2 = 18 gives f = (x - 3)^2, which no
     set of distinct ids encodes. *)
  let enc = [| Nat.of_int 6; Nat.of_int 18 |] in
  Alcotest.(check (option (list int))) "rejected" None (Power_sum.decode ~n:10 ~deg:2 enc)

let test_decode_out_of_range () =
  let enc = Power_sum.encode ~k:3 [ 2; 9; 11 ] in
  Alcotest.(check (option (list int))) "id 11 > n" None (Power_sum.decode ~n:10 ~deg:3 enc);
  Alcotest.(check (option (list int))) "n = 11" (Some [ 2; 9; 11 ]) (Power_sum.decode ~n:11 ~deg:3 enc)

let test_field_of_nat () =
  (* 2^31 = 1 (mod 2^31 - 1), so 2^65 = 2^3. *)
  Alcotest.(check int) "2^65" 8 (Field.of_nat (Nat.pow (Nat.of_int 2) 65));
  let big = Nat.pow (Nat.of_int 10) 30 in
  Alcotest.(check int) "10^30" (Field.pow 10 30) (Field.of_nat big);
  Alcotest.(check int) "p" 0 (Field.of_nat (Nat.of_int Field.p))

let test_field_roots () =
  let sorted = Option.map (List.sort compare) in
  (* (x - 2)(x + 2) = x^2 - 4 *)
  Alcotest.(check (option (list int))) "x^2 - 4" (Some [ 2; Field.p - 2 ])
    (sorted (Field.roots [| Field.neg 4; 0; 1 |]));
  (* -1 is a non-square since p = 3 (mod 4): x^2 + 1 is irreducible. *)
  Alcotest.(check (option (list int))) "x^2 + 1" None (Field.roots [| 1; 0; 1 |]);
  (* (x^2 + 1)(x - 5) = x^3 - 5x^2 + x - 5: an irreducible factor. *)
  Alcotest.(check (option (list int))) "(x^2 + 1)(x - 5)" None
    (Field.roots [| Field.neg 5; 1; Field.neg 5; 1 |]);
  (* (x - 1)^3 = x^3 - 3x^2 + 3x - 1: never separated. *)
  Alcotest.(check (option (list int))) "(x - 1)^3" None
    (Field.roots [| Field.neg 1; 3; Field.neg 3; 1 |])

(* Completeness: Field.roots separates two roots r, r' iff some shift a
   puts r + a and r' + a on different sides of the quadratic character.
   Distinct signatures for every id in 1..2^16 make decode complete for
   every n <= 2^16. *)
let test_shifts_separate_small_ids () =
  let bound = 1 lsl 16 in
  let half = (Field.p - 1) / 2 in
  let square = Array.init (bound + Field.shifts) (fun v -> v > 0 && Field.pow v half = 1) in
  Alcotest.(check bool) "signatures fit 64 bits" true (Field.shifts <= 64);
  let signature r =
    let s = ref 0L in
    for a = 0 to Field.shifts - 1 do
      if square.(r + a) then s := Int64.logor !s (Int64.shift_left 1L a)
    done;
    !s
  in
  let sigs = Array.init bound (fun i -> signature (i + 1)) in
  Array.sort Int64.compare sigs;
  let collisions = ref 0 in
  for i = 1 to bound - 1 do
    if Int64.equal sigs.(i) sigs.(i - 1) then incr collisions
  done;
  Alcotest.(check int) "pairs with equal signatures" 0 !collisions

(* Sets of up to 6 ids from 1..n with n up to 10^6: uniform draws, or a
   run r..r+d-1 ending at most 2 below n. *)
let gen_large_subset =
  QCheck2.Gen.(
    bind (int_range 1 1_000_000) (fun n ->
        bind (int_range 0 (min 6 n)) (fun d ->
            let uniform =
              map
                (fun l -> List.sort_uniq compare (List.map (fun v -> 1 + (abs v mod n)) l))
                (list_size (return d) int)
            in
            let clustered =
              map
                (fun gap ->
                  let r = max 1 (n - d + 1 - gap) in
                  List.init d (fun i -> r + i) |> List.filter (fun v -> v <= n))
                (int_range 0 2)
            in
            map (fun ids -> (n, ids)) (oneof [ uniform; clustered ]))))

let prop_decode_inverts_encode_large =
  QCheck2.Test.make ~name:"decode . encode = id, ids up to 10^6" ~count:300 gen_large_subset
    (fun (n, ids) ->
      let d = List.length ids in
      Power_sum.decode ~n ~deg:d (Power_sum.encode ~k:(max 1 d) ids) = Some ids)

(* Adding p to one coordinate keeps the row equal to a real set's
   encoding mod p, so the field proposes that set; only the exact
   re-encode can reject it. *)
let prop_forged_mod_p_rejected =
  QCheck2.Test.make ~name:"rows equal mod p but not exactly decode to None" ~count:300
    QCheck2.Gen.(pair gen_large_subset (int_range 0 5))
    (fun ((n, ids), j) ->
      QCheck2.assume (ids <> []);
      let d = List.length ids in
      let enc = Power_sum.encode ~k:d ids in
      let j = j mod d in
      let forged = Array.copy enc in
      forged.(j) <- Nat.add enc.(j) (Nat.of_int Field.p);
      Power_sum.decode ~n ~deg:d forged = None)

let gen_nat_row =
  QCheck2.Gen.(
    bind (int_range 1 6) (fun d ->
        map
          (fun vs -> Array.of_list (List.map (fun v -> Nat.of_int (abs v)) vs))
          (list_size (return d) int)))

let sound (n, row) =
  let d = Array.length row in
  match Power_sum.decode ~n ~deg:d row with
  | None -> true
  | Some ids -> Array.for_all2 Nat.equal (Power_sum.encode ~k:d ids) row

let prop_random_rows_sound =
  QCheck2.Test.make ~name:"random rows decode to None or to an exact preimage" ~count:500
    QCheck2.Gen.(pair (int_range 1 1_000_000) gen_nat_row)
    sound

(* Real encodings nudged by a small delta in one coordinate sit close to
   valid rows, where a sloppy decoder would be tempted. *)
let prop_nudged_rows_sound =
  QCheck2.Test.make ~name:"nudged encodings decode to None or to an exact preimage"
    ~count:300
    QCheck2.Gen.(triple gen_large_subset (int_range 0 5) (int_range 1 3))
    (fun ((n, ids), j, delta) ->
      QCheck2.assume (ids <> []);
      let d = List.length ids in
      let row = Power_sum.encode ~k:d ids in
      let j = j mod d in
      row.(j) <- Nat.add row.(j) (Nat.of_int delta);
      sound (n, row))

let () =
  Alcotest.run "power_sum"
    [
      ( "unit",
        [
          Alcotest.test_case "encode values" `Quick test_encode_values;
          Alcotest.test_case "encode empty" `Quick test_encode_empty;
          Alcotest.test_case "encode guards" `Quick test_encode_guards;
          Alcotest.test_case "encode = Vandermonde apply" `Quick test_encode_matches_vandermonde;
          Alcotest.test_case "subtract removes member" `Quick test_subtract_is_removal;
          Alcotest.test_case "subtract non-member" `Quick test_subtract_non_member;
          Alcotest.test_case "decode exact" `Quick test_decode_exact;
          Alcotest.test_case "decode prefix" `Quick test_decode_prefix;
          Alcotest.test_case "decode empty" `Quick test_decode_empty;
          Alcotest.test_case "decode malformed" `Quick test_decode_malformed;
          Alcotest.test_case "decode bad degree" `Quick test_decode_bad_degree;
          Alcotest.test_case "decode repeated root" `Quick test_decode_repeated_root;
          Alcotest.test_case "decode out of range" `Quick test_decode_out_of_range;
          Alcotest.test_case "field of_nat" `Quick test_field_of_nat;
          Alcotest.test_case "field roots" `Quick test_field_roots;
          Alcotest.test_case "shifts separate ids up to 2^16" `Quick
            test_shifts_separate_small_ids;
          Alcotest.test_case "table = newton (exhaustive small)" `Quick test_table_matches_newton;
          Alcotest.test_case "table entry count" `Quick test_table_entries;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_decode_inverts_encode;
            prop_subtract_then_decode;
            prop_decode_inverts_encode_large;
            prop_forged_mod_p_rejected;
            prop_random_rows_sound;
            prop_nudged_rows_sound;
          ] );
    ]
