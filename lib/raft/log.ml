type 'cmd entry = { term : int; cmd : 'cmd }

type 'cmd t = { mutable entries : 'cmd entry array; mutable len : int }

let create () = { entries = [||]; len = 0 }

let last_index t = t.len

let term_at t index =
  if index = 0 then 0
  else if index < 1 || index > t.len then
    invalid_arg (Printf.sprintf "Log.term_at: index %d out of range (len %d)" index t.len)
  else t.entries.(index - 1).term

let last_term t = if t.len = 0 then 0 else t.entries.(t.len - 1).term

let get t index =
  if index < 1 || index > t.len then
    invalid_arg (Printf.sprintf "Log.get: index %d out of range (len %d)" index t.len);
  t.entries.(index - 1)

let append t entry =
  if t.len >= Array.length t.entries then begin
    let cap = max 16 (2 * Array.length t.entries) in
    let grown = Array.make cap entry in
    Array.blit t.entries 0 grown 0 t.len;
    t.entries <- grown
  end;
  t.entries.(t.len) <- entry;
  t.len <- t.len + 1;
  t.len

let truncate_from t from =
  if from < 1 then invalid_arg "Log.truncate_from: index must be >= 1";
  if from <= t.len then t.len <- from - 1

(* Built back to front: one cons cell per entry. *)
let entries_from t ~from ~max =
  let acc = ref [] in
  for i = min t.len (from + max - 1) downto from do
    acc := t.entries.(i - 1) :: !acc
  done;
  !acc
