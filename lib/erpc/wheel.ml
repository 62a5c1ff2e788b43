(* Each slot is a FIFO chain of cells, kept as per-slot head/tail arrays
   ended by a per-wheel [nil] sentinel; drained cells go to a free-list,
   so steady-state insert and poll allocate nothing (the idiom of
   [Sim.Timing_wheel]). *)
type 'a cell = { mutable v : 'a; mutable next : 'a cell }

type 'a t = {
  slot_ns : int;
  num_slots : int;
  nil : 'a cell;
  head : 'a cell array;
  tail : 'a cell array;
  mutable free : 'a cell;  (* free-list through [next] *)
  mutable cursor_slot : int;  (* absolute slot index up to which we have polled *)
  mutable pending : int;
}

let create ~slot_ns ~num_slots =
  assert (slot_ns > 0 && num_slots > 1);
  let rec nil = { v = Obj.magic 0; next = nil } in
  {
    slot_ns;
    num_slots;
    nil;
    head = Array.make num_slots nil;
    tail = Array.make num_slots nil;
    free = nil;
    cursor_slot = 0;
    pending = 0;
  }

let horizon_ns t = t.slot_ns * (t.num_slots - 1)

let insert t ~now ~at x =
  let at = max at now in
  let at = min at (now + horizon_ns t) in
  let s = max (at / t.slot_ns) t.cursor_slot mod t.num_slots in
  let c =
    let c = t.free in
    if c != t.nil then begin
      t.free <- c.next;
      c.v <- x;
      c.next <- t.nil;
      c
    end
    else { v = x; next = t.nil }
  in
  if t.head.(s) == t.nil then t.head.(s) <- c else t.tail.(s).next <- c;
  t.tail.(s) <- c;
  t.pending <- t.pending + 1

let poll t ~now f =
  let target = now / t.slot_ns in
  let delivered = ref 0 in
  while t.cursor_slot <= target && t.pending > 0 do
    let s = t.cursor_slot mod t.num_slots in
    (* Re-read the head each round: [f] may append to this very slot. *)
    while t.head.(s) != t.nil do
      let c = t.head.(s) in
      t.head.(s) <- c.next;
      if c.next == t.nil then t.tail.(s) <- t.nil;
      let x = c.v in
      c.v <- Obj.magic 0;
      c.next <- t.free;
      t.free <- c;
      t.pending <- t.pending - 1;
      incr delivered;
      f x
    done;
    t.cursor_slot <- t.cursor_slot + 1
  done;
  if t.cursor_slot <= target then t.cursor_slot <- target + 1;
  !delivered

let pending t = t.pending
