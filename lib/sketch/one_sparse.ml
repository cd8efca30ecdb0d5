open Refnet_bits
open Refnet_algebra

type t = { z : int; s0 : Field.t; s1 : Field.t; s2 : Field.t }

let create ~z = { z = Field.of_int z; s0 = Field.zero; s1 = Field.zero; s2 = Field.zero }

let update t ~index ~delta =
  if index < 0 then invalid_arg "One_sparse.update: negative index";
  let d = Field.of_int delta in
  {
    t with
    s0 = Field.add t.s0 d;
    s1 = Field.add t.s1 (Field.mul d (Field.of_int index));
    s2 = Field.add t.s2 (Field.mul d (Field.pow t.z index));
  }

let combine a b =
  if a.z <> b.z then invalid_arg "One_sparse.combine: mismatched evaluation points";
  { a with s0 = Field.add a.s0 b.s0; s1 = Field.add a.s1 b.s1; s2 = Field.add a.s2 b.s2 }

let is_zero t = t.s0 = Field.zero && t.s1 = Field.zero && t.s2 = Field.zero

(* Map a field element to the symmetric range. *)
let symmetric v = if v > (Field.p - 1) / 2 then v - Field.p else v

let recover t =
  if is_zero t then None
  else if t.s0 = Field.zero then None
  else begin
    (* Candidate index i = s1 / s0; fingerprint check s2 = s0 * z^i. *)
    (* lint: allow exn-escape -- s0 <> zero was checked above; inv's raise is its own domain guard *)
    let i = Field.mul t.s1 (Field.inv t.s0) in
    if Field.equal t.s2 (Field.mul t.s0 (Field.pow t.z i)) then Some (i, symmetric t.s0)
    else None
  end

let bits = 3 * 31

let write w t =
  Codes.write_fixed w ~width:31 t.s0;
  Codes.write_fixed w ~width:31 t.s1;
  Codes.write_fixed w ~width:31 t.s2

let read r ~z =
  let s0 = Codes.read_fixed r ~width:31 in
  let s1 = Codes.read_fixed r ~width:31 in
  let s2 = Codes.read_fixed r ~width:31 in
  { z = Field.of_int z; s0; s1; s2 }
