(* Slicing-by-8: table.(0) is the classic byte-at-a-time table; table.(k)
   advances a byte through k additional zero bytes, so one loop iteration
   folds eight input bytes into the running CRC with eight table reads.
   Built at module initialization, not lazily: trace chunks are checksummed
   on several domains at once, and a lazy value forced concurrently raises
   [CamlinternalLazy.Undefined]. *)
let table =
  let t0 =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
          else c := !c lsr 1
        done;
        !c)
  in
  let tabs = Array.make 8 t0 in
  for k = 1 to 7 do
    tabs.(k) <-
      Array.init 256 (fun n ->
          let prev = tabs.(k - 1).(n) in
          t0.(prev land 0xFF) lxor (prev lsr 8))
  done;
  tabs

let init = 0xFFFFFFFF

let update_bytes t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.update_bytes";
  let t0 = Array.unsafe_get table 0
  and t1 = Array.unsafe_get table 1
  and t2 = Array.unsafe_get table 2
  and t3 = Array.unsafe_get table 3
  and t4 = Array.unsafe_get table 4
  and t5 = Array.unsafe_get table 5
  and t6 = Array.unsafe_get table 6
  and t7 = Array.unsafe_get table 7 in
  let c = ref t in
  let i = ref pos in
  let stop = pos + len in
  (* all indices below are masked to 0..255, so unsafe reads cannot escape *)
  while stop - !i >= 8 do
    let w = Bytes.get_int64_le b !i in
    let lo = !c lxor (Int64.to_int w land 0xFFFFFFFF) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) land 0xFFFFFFFF in
    c :=
      Array.unsafe_get t7 (lo land 0xFF)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 ((lo lsr 24) land 0xFF)
      lxor Array.unsafe_get t3 (hi land 0xFF)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 ((hi lsr 24) land 0xFF);
    i := !i + 8
  done;
  while !i < stop do
    c :=
      Array.unsafe_get t0 ((!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xFF)
      lxor (!c lsr 8);
    incr i
  done;
  !c

let update_string t s =
  update_bytes t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finish t = t lxor 0xFFFFFFFF

let string s = finish (update_string init s)
