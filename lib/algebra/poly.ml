open Refnet_bigint

type t = Bigint.t array
(* Little-endian coefficients, canonical: last entry non-zero; zero is [||]. *)

let zero : t = [||]
let one : t = [| Bigint.one |]

let normalize (c : Bigint.t array) : t =
  let len = ref (Array.length c) in
  while !len > 0 && Bigint.is_zero c.(!len - 1) do
    decr len
  done;
  if !len = Array.length c then c else Array.sub c 0 !len

let of_coeffs c = normalize (Array.copy c)
let to_coeffs (p : t) = Array.copy p

let degree (p : t) = Array.length p - 1

let coeff (p : t) i = if i >= 0 && i < Array.length p then p.(i) else Bigint.zero

let is_zero (p : t) = Array.length p = 0

let equal (p : t) (q : t) =
  Array.length p = Array.length q
  &&
  let rec go i = i >= Array.length p || (Bigint.equal p.(i) q.(i) && go (i + 1)) in
  go 0

let constant c = normalize [| c |]

let monomial c i =
  if i < 0 then invalid_arg "Poly.monomial: negative exponent";
  if Bigint.is_zero c then zero
  else begin
    let r = Array.make (i + 1) Bigint.zero in
    r.(i) <- c;
    r
  end

let add (p : t) (q : t) : t =
  let n = max (Array.length p) (Array.length q) in
  normalize (Array.init n (fun i -> Bigint.add (coeff p i) (coeff q i)))

let neg (p : t) : t = Array.map Bigint.neg p

let sub p q = add p (neg q)

let mul (p : t) (q : t) : t =
  if is_zero p || is_zero q then zero
  else begin
    let r = Array.make (Array.length p + Array.length q - 1) Bigint.zero in
    Array.iteri
      (fun i pi ->
        if not (Bigint.is_zero pi) then
          Array.iteri (fun j qj -> r.(i + j) <- Bigint.add r.(i + j) (Bigint.mul pi qj)) q)
      p;
    normalize r
  end

let scale c (p : t) : t =
  if Bigint.is_zero c then zero else normalize (Array.map (Bigint.mul c) p)

let eval (p : t) x =
  let acc = ref Bigint.zero in
  for i = Array.length p - 1 downto 0 do
    acc := Bigint.add (Bigint.mul !acc x) p.(i)
  done;
  !acc

let derivative (p : t) : t =
  if Array.length p <= 1 then zero
  else normalize (Array.init (Array.length p - 1) (fun i -> Bigint.mul (Bigint.of_int (i + 1)) p.(i + 1)))

let from_roots roots =
  List.fold_left (fun acc r -> mul acc (of_coeffs [| Bigint.neg r; Bigint.one |])) one roots

let pp fmt (p : t) =
  if is_zero p then Format.pp_print_string fmt "0"
  else begin
    let first = ref true in
    for i = Array.length p - 1 downto 0 do
      if not (Bigint.is_zero p.(i)) then begin
        if not !first then Format.pp_print_string fmt " + ";
        first := false;
        if i = 0 then Bigint.pp fmt p.(i)
        else if Bigint.equal p.(i) Bigint.one then Format.fprintf fmt "x^%d" i
        else Format.fprintf fmt "%a*x^%d" Bigint.pp p.(i) i
      end
    done
  end
