let get b base i = Codec.get_u8 b (base + (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set b base i =
  let off = base + (i lsr 3) in
  Codec.set_u8 b off (Codec.get_u8 b off lor (1 lsl (i land 7)))

let clear b base i =
  let off = base + (i lsr 3) in
  Codec.set_u8 b off (Codec.get_u8 b off land lnot (1 lsl (i land 7)))

let find_clear_in b base ~lo ~hi =
  let rec scan i = if i >= hi then None else if get b base i then scan (i + 1) else Some i in
  scan lo

let find_clear b base ~len ~hint =
  let hint = if len = 0 then 0 else hint mod len in
  match find_clear_in b base ~lo:hint ~hi:len with
  | Some _ as r -> r
  | None -> find_clear_in b base ~lo:0 ~hi:hint

let all_clear b base ~off ~len =
  let rec scan i = i >= off + len || ((not (get b base i)) && scan (i + 1)) in
  scan off

let count_clear b base ~off ~len =
  let n = ref 0 in
  for i = off to off + len - 1 do
    if not (get b base i) then incr n
  done;
  !n
