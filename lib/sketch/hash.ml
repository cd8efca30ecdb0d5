open Refnet_algebra

type t = { a : int; b : int }

let create rng =
  let a = 1 + Random.State.full_int rng (Field.p - 1) in
  let b = Random.State.full_int rng Field.p in
  { a; b }

let apply h x = Field.add (Field.mul h.a (Field.of_int x)) h.b

let level h x ~max_level =
  let v = apply h x in
  let rec go j v = if j >= max_level || v land 1 = 1 then j else go (j + 1) (v lsr 1) in
  go 0 v

let seed_family ~seed ~count =
  let rng = Random.State.make [| 0x53e7c4; seed |] in
  Array.init count (fun _ -> create rng)
