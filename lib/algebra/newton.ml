open Refnet_bigint

let elementary_of_power_sums p_list =
  let p = Array.of_list p_list in
  let d = Array.length p in
  let e = Array.make (d + 1) Bigint.zero in
  e.(0) <- Bigint.one;
  for m = 1 to d do
    (* m * e_m = sum_{i=1..m} (-1)^(i-1) e_(m-i) p_i *)
    let acc = ref Bigint.zero in
    for i = 1 to m do
      let term = Bigint.mul e.(m - i) p.(i - 1) in
      acc := if i land 1 = 1 then Bigint.add !acc term else Bigint.sub !acc term
    done;
    e.(m) <- Bigint.div_exact !acc (Bigint.of_int m)
  done;
  Array.to_list (Array.sub e 1 d)

let power_sums_of_elementary e_list ~upto =
  if upto < 0 then invalid_arg "Newton.power_sums_of_elementary: negative bound";
  let d = List.length e_list in
  let e = Array.make (upto + 1) Bigint.zero in
  e.(0) <- Bigint.one;
  List.iteri (fun i v -> if i + 1 <= upto then e.(i + 1) <- v) e_list;
  (* Beyond the number of values, e_m = 0 is already in place. *)
  let eff m = if m <= d then e.(m) else Bigint.zero in
  let p = Array.make (upto + 1) Bigint.zero in
  for m = 1 to upto do
    (* p_m = sum_{i=1..m-1} (-1)^(i-1) e_i p_(m-i) + (-1)^(m-1) m e_m *)
    let acc = ref Bigint.zero in
    for i = 1 to m - 1 do
      let term = Bigint.mul (eff i) p.(m - i) in
      acc := if i land 1 = 1 then Bigint.add !acc term else Bigint.sub !acc term
    done;
    let last = Bigint.mul (Bigint.of_int m) (eff m) in
    p.(m) <- (if m land 1 = 1 then Bigint.add !acc last else Bigint.sub !acc last)
  done;
  Array.to_list (Array.sub p 1 upto)

let power_sums values ~upto =
  if upto < 0 then invalid_arg "Newton.power_sums: negative bound";
  List.init upto (fun i ->
      let p = i + 1 in
      List.fold_left (fun acc v -> Bigint.add acc (Bigint.pow v p)) Bigint.zero values)

let elementary values =
  (* Expand prod (1 + v t) incrementally; coefficient of t^m is e_m. *)
  let d = List.length values in
  let e = Array.make (d + 1) Bigint.zero in
  e.(0) <- Bigint.one;
  List.iteri
    (fun i v ->
      for m = i + 1 downto 1 do
        e.(m) <- Bigint.add e.(m) (Bigint.mul v e.(m - 1))
      done)
    values;
  Array.to_list (Array.sub e 1 d)
