(* Host-side measurement: process CPU time, the reference loop that
   normalizes it, raw latency samples with honest percentiles, and the
   in-memory span recorder of the traced run. *)

(* Process CPU seconds (getrusage: microsecond resolution on Linux). *)
let cpu_s () = Sys.time ()

(* {2 Reference loop}

   A fixed amount of non-allocating work — xorshift-driven reads and writes
   over a 1 MiB int array — that takes about [ref_nominal_s] on a 2-core
   x86 host. Timing it right next to each slice of simulation turns
   host-speed swings (frequency, a busy SMT sibling) into a common factor
   that the slice/reference ratio cancels. It allocates nothing, so it
   leaves the GC state the simulation sees untouched. *)

let ref_nominal_s = 0.030
let ref_words = 1 lsl 17
let ref_iters = 6_000_000
let ref_array = Array.make ref_words 0

let ref_loop () =
  let a = ref_array and mask = ref_words - 1 in
  let x = ref 88172645463325252 in
  for _ = 1 to ref_iters do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let i = v land mask in
    Array.unsafe_set a i (Array.unsafe_get a i + v)
  done;
  ignore (Sys.opaque_identity a)

(* CPU seconds of one reference loop. *)
let time_ref () =
  let t0 = cpu_s () in
  ref_loop ();
  cpu_s () -. t0

let median_f l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* {2 Latency samples}

   Raw integer nanoseconds, not a bucketed histogram: percentiles are exact
   order statistics (nearest rank), and the tail rule below needs the true
   count of samples beyond a percentile. *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int; mutable sorted : bool }

  let create () = { a = Array.make 1024 0; n = 0; sorted = true }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1;
    t.sorted <- false

  let count t = t.n

  let sort t =
    if not t.sorted then begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      Array.blit s 0 t.a 0 t.n;
      t.sorted <- true
    end

  (* The tolerance keeps float error from adding a rank: 99.9% of 20000
     is exactly 19980. *)
  let rank t p = max 1 (int_of_float (ceil ((p *. float_of_int t.n /. 100.) -. 1e-9)))

  (* Nearest-rank percentile in ns; [p] in (0, 100]. *)
  let percentile t p =
    if t.n = 0 then invalid_arg "Samples.percentile: empty";
    sort t;
    t.a.(rank t p - 1)

  (* Samples strictly above the percentile's rank. *)
  let beyond t p = t.n - rank t p

  let fold f acc t =
    let r = ref acc in
    for i = 0 to t.n - 1 do
      r := f !r t.a.(i)
    done;
    !r
end

(* Percentiles a tail may fall back to, highest first. *)
let tail_ladder = [ 99.9; 99.; 90.; 50. ]

(* The highest percentile at or below [want] with at least ten samples
   beyond it, and its value in µs. *)
let honest_tail s ~want =
  let rec go = function
    | [] -> (50., float_of_int (Samples.percentile s 50.) /. 1e3)
    | p :: rest ->
        if p > want then go rest
        else if Samples.beyond s p >= 10 then (p, float_of_int (Samples.percentile s p) /. 1e3)
        else go rest
  in
  go tail_ladder

let pct_label p = if p = 99.9 then "p999" else Printf.sprintf "p%.0f" p

(* {2 Benchmark-side spans}

   Recorded in the traced run around the benchmark's own calls into each
   layer: name, start and end (monotonic-clock ns since the recorder was
   made),
   the parent span's id (0 for a root) and the operation id the call
   served (0 when it serves none). Kept in memory, written out at the end. *)

module Spans = struct
  type span = { id : int; name : string; start_ns : int; end_ns : int; parent : int; op : int }

  type t = {
    origin : int;
    on : bool;
    mutable next : int;
    mutable open_ : int list;  (** ids of the spans being run, innermost first *)
    mutable spans : span list;
  }

  let clock_ns () = Int64.to_int (Monotonic_clock.now ())
  let create ~on = { origin = clock_ns (); on; next = 1; open_ = []; spans = [] }
  let now_ns t = clock_ns () - t.origin

  (* Run [f] inside a span whose parent is the innermost open span;
     returns [f]'s result. A no-op wrapper when the recorder is off. *)
  let with_span t ?(op = 0) name f =
    if not t.on then f ()
    else begin
      let id = t.next in
      t.next <- id + 1;
      let parent = match t.open_ with p :: _ -> p | [] -> 0 in
      t.open_ <- id :: t.open_;
      let start_ns = now_ns t in
      let r = f () in
      t.spans <- { id; name; start_ns; end_ns = now_ns t; parent; op } :: t.spans;
      t.open_ <- List.tl t.open_;
      r
    end

  let spans t = List.rev t.spans

  (* Total duration of the spans named [name]. *)
  let total_ns t name =
    List.fold_left
      (fun acc s -> if s.name = name then acc + (s.end_ns - s.start_ns) else acc)
      0 t.spans

  let count t name = List.length (List.filter (fun s -> s.name = name) t.spans)

  let write t path =
    let oc = open_out path in
    output_string oc "[\n";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n"
          (if i = 0 then "" else ",")
          s.id s.name s.start_ns s.end_ns s.parent s.op)
      (spans t);
    output_string oc "]\n";
    close_out oc
end

(* {2 Metric names and JSON} *)

let valid_name n =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '-'
  in
  let alnum c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') in
  String.length n >= 1 && String.length n <= 64 && alnum n.[0] && String.for_all ok n

(* Every digit of a float, as a JSON number. *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f
