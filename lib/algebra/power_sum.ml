open Refnet_bigint

type encoding = Nat.t array

(* Memoized power table: [row p] caches [i^(p+1)] for [i = 1..len].  In a
   simulation every node encodes the same small exponents over ids from
   the same [{1..n}], so each power is computed once per process instead
   of once per node.  Rows are immutable once published through the
   [Atomic.t] (publication creates the happens-before edge that makes the
   cached [Nat.t]s safe to read from any domain); growth is serialized by
   [memo_mu] and doubles, so rebuilds are logarithmic.  Ids above
   [max_memo_id] are powered directly: one large id must not materialize
   a row for every id below it. *)
let max_memo_pow = 16
let max_memo_id = 1 lsl 17

let pow_memo : Nat.t array Atomic.t array =
  Array.init max_memo_pow (fun _ -> Atomic.make [||])

let memo_mu = Mutex.create ()

let pow_id i p =
  if i <= 0 then invalid_arg "Power_sum: non-positive id";
  if p > max_memo_pow || i > max_memo_id then Nat.pow (Nat.of_int i) p
  else begin
    let row = Atomic.get pow_memo.(p - 1) in
    if i <= Array.length row then Array.unsafe_get row (i - 1) (* lint: allow referee-totality -- guarded by the bound check on this line *)
    else begin
      Mutex.lock memo_mu;
      let row = Atomic.get pow_memo.(p - 1) in
      let result =
        if i <= Array.length row then row.(i - 1)
        else begin
          let len = min max_memo_id (max i (2 * Array.length row)) in
          let grown =
            Array.init len (fun j ->
                if j < Array.length row then row.(j) else Nat.pow (Nat.of_int (j + 1)) p)
          in
          Atomic.set pow_memo.(p - 1) grown;
          grown.(i - 1)
        end
      in
      Mutex.unlock memo_mu;
      result
    end
  end

let check_ids ids k =
  (* Single sorted scan: adjacent equality catches repeats, the same walk
     validates positivity and counts the length. *)
  let sorted = List.sort Stdlib.compare ids in
  let rec scan count = function
    | [] -> count
    | [ i ] ->
      if i <= 0 then invalid_arg "Power_sum.encode: non-positive id";
      count + 1
    | i :: (j :: _ as rest) ->
      if i = j then invalid_arg "Power_sum.encode: repeated id";
      if i <= 0 then invalid_arg "Power_sum.encode: non-positive id";
      scan (count + 1) rest
  in
  if scan 0 sorted > k then invalid_arg "Power_sum.encode: more ids than k"

let encode ?coords ~k ids =
  if k < 0 then invalid_arg "Power_sum.encode: negative k";
  let coords =
    match coords with
    | None -> k
    | Some c ->
      if c < 0 || c > k then invalid_arg "Power_sum.encode: bad coords";
      c
  in
  check_ids ids k;
  Array.init coords (fun p ->
      List.fold_left (fun acc i -> Nat.add acc (pow_id i (p + 1))) Nat.zero ids)

let subtract enc ~id ~upto =
  if id <= 0 then invalid_arg "Power_sum.subtract: non-positive id";
  if upto > Array.length enc then invalid_arg "Power_sum.subtract: upto exceeds encoding";
  Array.mapi
    (fun p b ->
      if p < upto then begin
        let ip = pow_id id (p + 1) in
        if Nat.compare b ip < 0 then invalid_arg "Power_sum.subtract: id not a member";
        Nat.sub b ip
      end
      else b)
    enc

let decode ~n ~deg enc =
  if deg < 0 || deg > Array.length enc then invalid_arg "Power_sum.decode: bad degree";
  if n >= Field.p then invalid_arg "Power_sum.decode: n must be below Field.p";
  if deg = 0 then Some []
  else begin
    (* Newton's identities over F_p (valid since p > deg):
       m e_m = sum_{i=1..m} (-1)^(i-1) e_(m-i) p_i. *)
    let sums = Array.init deg (fun i -> Field.of_nat enc.(i)) in
    let e = Array.make (deg + 1) 0 in
    e.(0) <- 1;
    for m = 1 to deg do
      let acc = ref 0 in
      for i = 1 to m do
        let term = Field.mul e.(m - i) sums.(i - 1) in
        acc := if i land 1 = 1 then Field.add !acc term else Field.sub !acc term
      done;
      (* lint: allow exn-escape -- 1 <= m <= deg < p, so m is nonzero in the field *)
      e.(m) <- Field.mul !acc (Field.inv m)
    done;
    (* f = x^deg - e_1 x^(deg-1) + e_2 x^(deg-2) - ... *)
    let f =
      Array.init (deg + 1) (fun i ->
          if (deg - i) land 1 = 1 then Field.neg e.(deg - i) else e.(deg - i))
    in
    match Field.roots f with
    | None -> None
    | Some roots ->
      let roots = List.sort Stdlib.compare roots in
      let rec increasing_in_range prev = function
        | [] -> true
        | r :: rest -> r > prev && r <= n && increasing_in_range r rest
      in
      (* The field only proposes a set; the exact re-encode decides, so a
         row that merely agrees mod p decodes to None. *)
      if increasing_in_range 0 roots then
        let check = encode ~k:deg roots in
        if Array.for_all2 Nat.equal check (Array.sub enc 0 deg) then Some roots else None
      else None
  end

module Table = struct
  module Key = struct
    type t = string
    let of_encoding (enc : encoding) ~deg =
      let buf = Buffer.create 32 in
      for p = 0 to deg - 1 do
        Buffer.add_string buf (Nat.to_string enc.(p));
        Buffer.add_char buf ','
      done;
      Buffer.contents buf
  end

  type t = { n : int; k : int; table : (Key.t, int list) Hashtbl.t }

  let build ~n ~k =
    if n < 0 || k < 0 then invalid_arg "Power_sum.Table.build: negative parameter";
    let table = Hashtbl.create 1024 in
    (* Enumerate subsets of {1..n} of size exactly d for d = 0..k. *)
    let rec subsets first remaining acc =
      if remaining = 0 then begin
        let ids = List.rev acc in
        let enc = encode ~k:(List.length ids) ids in
        Hashtbl.replace table (Key.of_encoding enc ~deg:(List.length ids)) ids
      end
      else
        for i = first to n - remaining + 1 do
          subsets (i + 1) (remaining - 1) (i :: acc)
        done
    in
    for d = 0 to min k n do
      subsets 1 d []
    done;
    { n; k; table }

  let entries t = Hashtbl.length t.table

  let lookup t enc ~deg =
    if deg < 0 || deg > t.k then None
    else Hashtbl.find_opt t.table (Key.of_encoding enc ~deg)
end
