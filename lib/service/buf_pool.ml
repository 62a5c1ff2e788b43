type pair = { mutable req : Erpc.Msgbuf.t; resp : Erpc.Msgbuf.t }

type t = {
  resp_size : int;
  mutable free : pair array;
  mutable nfree : int;
  mutable allocated : int;
}

let create ~resp_size = { resp_size; free = [||]; nfree = 0; allocated = 0 }

let take t ~req_size =
  if t.nfree = 0 then begin
    t.allocated <- t.allocated + 1;
    {
      req = Erpc.Msgbuf.alloc ~max_size:req_size;
      resp = Erpc.Msgbuf.alloc ~max_size:t.resp_size;
    }
  end
  else begin
    t.nfree <- t.nfree - 1;
    let p = t.free.(t.nfree) in
    if Erpc.Msgbuf.max_size p.req < req_size then
      p.req <- Erpc.Msgbuf.alloc ~max_size:req_size;
    p
  end

let give t p =
  if t.nfree = Array.length t.free then begin
    let grown = Array.make (max 8 (2 * t.nfree)) p in
    Array.blit t.free 0 grown 0 t.nfree;
    t.free <- grown
  end;
  t.free.(t.nfree) <- p;
  t.nfree <- t.nfree + 1

let allocated t = t.allocated
