open Refnet_bigint

type t = int

let p = (1 lsl 31) - 1

let of_int v =
  let r = v mod p in
  if r < 0 then r + p else r

let zero = 0
let one = 1

let add a b =
  let s = a + b in
  if s >= p then s - p else s

let sub a b = if a >= b then a - b else a + p - b

let neg a = if a = 0 then 0 else p - a

(* Mersenne reduction of 0 <= x < 2^62: since 2^31 = 1 (mod p), x is
   congruent to (x land p) + (x lsr 31) < 2^32; one more fold leaves at
   most p, and the final subtraction makes it canonical. *)
let[@inline] reduce x =
  let r = (x land p) + (x lsr 31) in
  let r = (r land p) + (r lsr 31) in
  if r >= p then r - p else r

(* a, b < 2^31 so a * b < 2^62 fits. *)
let mul a b = reduce (a * b)

let pow b e =
  if e < 0 then invalid_arg "Field.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else go (if e land 1 = 1 then mul acc b else acc) (mul b b) (e lsr 1)
  in
  go one b e

(* Fermat: x^(p-2) = 1/x for x <> 0. *)
let inv_nonzero x = pow x (p - 2)

let inv x = if x = 0 then raise Division_by_zero else inv_nonzero x

(* Horner over base-2^30 digits, most significant first: r < 2^31, so
   r * 2^30 + d < 2^62 stays in reduce's range. *)
let of_nat v =
  let d = Nat.to_digits v in
  let r = ref 0 in
  for i = Array.length d - 1 downto 0 do
    r := reduce ((!r lsl 30) + d.(i))
  done;
  !r

let equal (a : int) (b : int) = a = b

(* ---------- roots of polynomials that split into linear factors ----------

   Polynomials are little-endian [int] arrays.  The splitter reduces
   modulo a monic [f] of degree [d >= 3] with [f.(d) = 1], through its
   negated low coefficients [nf.(j) = -f_j], so that x^d = sum nf_j x^j;
   residues mod [f] have length [d].  The inner loops run in this module
   so that the reduction inlines, and they reduce lazily: [fold x] is
   congruent to [x] and below 2^32 for 0 <= x < 2^62, so a slot can sum
   many folded products before one [reduce]. *)

let shifts = 64

let[@inline] fold x = (x land p) + (x lsr 31)

(* [r <- r^2 mod f], through the scratch [t] of length [2d - 1]. *)
let square_mod nf r t =
  let d = Array.length r in
  Array.fill t 0 (Array.length t) 0;
  for i = 0 to d - 1 do
    let ri = r.(i) in
    if ri <> 0 then begin
      t.(2 * i) <- t.(2 * i) + fold (ri * ri);
      for j = i + 1 to d - 1 do
        t.(i + j) <- t.(i + j) + (2 * fold (ri * r.(j)))
      done
    end
  done;
  for i = (2 * d) - 2 downto d do
    let q = reduce t.(i) in
    if q <> 0 then
      for j = 0 to d - 1 do
        t.(i - d + j) <- t.(i - d + j) + fold (q * nf.(j))
      done
  done;
  for j = 0 to d - 1 do
    r.(j) <- reduce t.(j)
  done

(* (x + a)^((p + 1) / 2) mod f.  Since (p + 1) / 2 = 2^30 this is 30
   squarings and nothing else; it equals (x + a) exactly at the roots r
   of f where r + a is a square (or zero). *)
let half_power_mod f a =
  let d = Array.length f - 1 in
  let nf = Array.init d (fun j -> neg f.(j)) in
  let r = Array.make d 0 and t = Array.make ((2 * d) - 1) 0 in
  r.(0) <- a;
  r.(1) <- 1;
  for _ = 1 to 30 do
    square_mod nf r t
  done;
  r

let degree a =
  let d = ref (Array.length a - 1) in
  while !d >= 0 && a.(!d) = 0 do
    decr d
  done;
  !d

let trim a = Array.sub a 0 (degree a + 1)

(* [a] scaled to leading coefficient 1; [a] is trimmed and nonzero. *)
let monic a =
  let lc = a.(Array.length a - 1) in
  if lc = 1 then a
  else
    (* lc <> 0: [a] is trimmed and nonzero. *)
    let c = inv_nonzero lc in
    Array.map (mul c) a

(* A nonzero multiple of the remainder of [a] by the trimmed nonzero
   [b], trimmed.  Each step scales [a] by lc(b) instead of dividing by
   it, which changes the remainder only by a unit and needs no inverse. *)
let prem a b =
  let a = Array.copy a and db = Array.length b - 1 in
  let lc = b.(db) in
  for i = Array.length a - 1 downto db do
    let q = a.(i) in
    if q <> 0 then begin
      if lc <> 1 then
        for j = 0 to i do
          a.(j) <- mul lc a.(j)
        done;
      for j = 0 to db do
        a.(i - db + j) <- sub a.(i - db + j) (mul q b.(j))
      done
    end
  done;
  trim (Array.sub a 0 (min db (Array.length a)))

(* Monic gcd of two trimmed polynomials, [a] nonzero. *)
let rec gcd a b = if Array.length b = 0 then monic a else gcd b (prem a b)

(* Quotient of [a] by the monic [b] that divides it. *)
let quotient a b =
  let a = Array.copy a and db = Array.length b - 1 in
  let q = Array.make (Array.length a - db) 0 in
  for i = Array.length a - 1 downto db do
    let c = a.(i) in
    q.(i - db) <- c;
    if c <> 0 then
      for j = 0 to db do
        a.(i - db + j) <- sub a.(i - db + j) (mul c b.(j))
      done
  done;
  q

(* Since p = 3 (mod 4), a square z has the root z^((p+1)/4). *)
let sqrt z =
  let s = pow z ((p + 1) / 4) in
  if mul s s = z then Some s else None

let half = (p + 1) / 2

(* Pushes the roots of the monic [f] onto [acc], splitting with the
   shifts [from .. shifts - 1].  A shift that left a factor whole leaves
   every factor of it whole, so both halves of a split carry on from the
   next shift. *)
let rec split f from acc =
  match Array.length f - 1 with
  | 1 ->
    acc := neg f.(0) :: !acc;
    true
  | 2 -> (
    (* x^2 + b x + c = (x - r1)(x - r2), r = (-b +- sqrt(b^2 - 4c)) / 2 *)
    let b = f.(1) and c = f.(0) in
    let disc = sub (mul b b) (mul 4 c) in
    if disc = 0 then false
    else
      match sqrt disc with
      | None -> false
      | Some s ->
        acc := mul half (sub s b) :: mul half (neg (add b s)) :: !acc;
        true)
  | d ->
    if from >= shifts then false
    else begin
      let r = half_power_mod f from in
      r.(0) <- sub r.(0) from;
      r.(1) <- sub r.(1) 1;
      let g = gcd f (trim r) in
      let dg = Array.length g - 1 in
      if dg = 0 || dg = d then split f (from + 1) acc
      else split g (from + 1) acc && split (quotient f g) (from + 1) acc
    end

let roots f =
  if Array.length f < 2 || f.(Array.length f - 1) <> 1 then invalid_arg "Field.roots: not monic";
  let acc = ref [] in
  if split f 0 acc then Some !acc else None
