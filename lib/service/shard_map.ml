type t = {
  shards : int;
  replication : int;
  replica_hosts : int array;
  groups : int array array;  (** by shard; shared, read-only *)
  leaders : int option array;  (** hints, indexed by shard *)
}

let create ~shards ~replication ~replica_hosts =
  if replication > Array.length replica_hosts then
    invalid_arg "Shard_map.create: replication exceeds host count";
  assert (shards > 0 && replication > 0);
  let n = Array.length replica_hosts in
  let groups =
    Array.init shards (fun shard ->
        Array.init replication (fun i -> replica_hosts.((shard + i) mod n)))
  in
  { shards; replication; replica_hosts; groups; leaders = Array.make shards None }

let shards t = t.shards
let replication t = t.replication
let replica_hosts t = t.replica_hosts

let group t ~shard = t.groups.(shard)

let shard_of_key t ~key = Workload.Keygen.fnv1a key mod t.shards

let shards_on t ~host =
  List.filter
    (fun s -> Array.exists (( = ) host) (group t ~shard:s))
    (List.init t.shards Fun.id)

let leader_hint t ~shard = t.leaders.(shard)
(* Written only on a change: a steady leader costs no [Some] box per op. *)
let set_leader_hint t ~shard ~host =
  match t.leaders.(shard) with
  | Some h when h = host -> ()
  | _ -> t.leaders.(shard) <- Some host
let clear_leader_hint t ~shard = t.leaders.(shard) <- None

let clear_hints_for t ~host =
  Array.iteri (fun s l -> if l = Some host then t.leaders.(s) <- None) t.leaders
