(* perfbench — one run of the serving benchmark.

     perfbench.exe --workload point|versioned_scan|replicated --seed N
                   --seconds S --trace 0|1 [--out DIR] [--toy] [--falsify K]

   One closed-loop client with one request outstanding drives
   in-process [Net.Server] instances ([~workers:1]) whose store is
   [Mvdict.Pskiplist] on RAM-backed [Pmem] media. The op stream is
   generated from the seed before anything is timed; every answer is
   checked against [Model]. The last line of stdout is one JSON object:
   [{"correct", "attempted", "failed", "metrics"}]. With [--trace 0]
   the metrics are the end-to-end ones, with [--trace 1] the per-layer
   ones. See README.md for the workloads and what each metric means. *)

module Store = Layers.Store
module Server = Net.Server.Make (Layers.Timed_store)
module Backup = Net.Server.Make (Layers.Store)
module Router = Cluster.Router

type shape = Point | Versioned_scan | Replicated

let shape_name = function
  | Point -> "point"
  | Versioned_scan -> "versioned_scan"
  | Replicated -> "replicated"

let preload_versions = 4
let page = 256 (* pairs per scan page *)
let batch = 64 (* pairs per insert_batch *)
let tag_every_writes = 1000
let tag_every_batches = 16
let retain_every_batches = 1024
let keep = 32
let key_bits = 32
let sample_cap = 2048 (* client ops kept for the codec and local-op replays *)

type cfg = {
  shape : shape;
  keys : int;  (** distinct keys, each preloaded with 4 tagged versions *)
  stream : int;  (** ops generated up front; the run cycles over them *)
  warmup : int;  (** untimed ops between set-up and the timed window *)
  setups : int;  (** set-ups per run; setup_s is their median *)
  recoveries : int;  (** restarts from the pmem image; recover_s the fastest *)
  heap_bytes : int;  (** RAM media per store *)
  check_keys : int;  (** sampled keys compared across the restart *)
}

let config ~toy ~trace shape =
  let keys, stream, warmup, heap_bytes =
    match shape with
    | Point | Replicated -> (16_384, 1 lsl 19, 4_000, 48 lsl 20)
    | Versioned_scan -> (100_000, 1 lsl 15, 2_200, 96 lsl 20)
  in
  let setups = if trace then 1 else 5 in
  let recoveries = 15 in
  let cfg =
    {
      shape;
      keys;
      stream;
      warmup;
      setups;
      recoveries;
      heap_bytes;
      check_keys = 4096;
    }
  in
  if toy then
    {
      cfg with
      keys = keys / 64;
      stream = stream / 16;
      warmup = warmup / 4;
      check_keys = 256;
    }
  else cfg

(* CPU placement (affinity.c). The serving phase runs pinned to one
   CPU: client, servers and backup then hand requests to each other
   without cross-core wake-ups, which on a 2-vCPU machine spread
   unpinned runs about twice as wide. The restart runs on every CPU,
   because it rebuilds the index with two threads. *)
external last_cpu : unit -> int = "perfbench_last_cpu"
external pin : int -> unit = "perfbench_pin"

let now = Obs.Clock.now_ns
let secs ns = float_of_int ns /. 1e9

(* ---- the op stream ---- *)

let k_find = 0
let k_find_at = 1
let k_insert = 2
let k_tag = 3
let k_scan = 4
let k_batch = 5
let k_retain = 6

type stream = {
  kind : Bytes.t;
  key : int array;  (** key index; for a batch, the batch's slot *)
  rnd : int array;  (** picks the version a read is pinned at *)
  bkeys : int array;  (** [batch] ascending key indices per batch slot *)
  len : int;
}

(* Distinct random keys below [2^key_bits], ascending: index [i] of
   this array is key [i] everywhere else. *)
let gen_keys rng n =
  let seen = Hashtbl.create n in
  let keys = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    let k = Random.State.bits rng lor (Random.State.bits rng lsl 30) in
    let k = k land ((1 lsl key_bits) - 1) in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      keys.(!i) <- k;
      incr i
    end
  done;
  Array.sort compare keys;
  keys

let gen_stream cfg rng =
  let len = cfg.stream in
  let kind = Bytes.make len '\000' in
  let key = Array.make len 0 and rnd = Array.make len 0 in
  let i = ref 0 in
  let push k x =
    if !i < len then begin
      Bytes.set kind !i (Char.chr k);
      key.(!i) <- x;
      rnd.(!i) <- Random.State.bits rng;
      incr i
    end
  in
  (* The mix is exact in every group of ops (shuffled within the
     group), so every cycle holds the same amount of work. *)
  let group =
    match cfg.shape with
    | Point | Replicated -> [| k_find; k_find; k_find_at; k_insert |]
    | Versioned_scan -> [| k_scan; k_batch |]
  in
  let shuffle a =
    for j = Array.length a - 1 downto 1 do
      let r = Random.State.int rng (j + 1) in
      let x = a.(j) in
      a.(j) <- a.(r);
      a.(r) <- x
    done
  in
  let writes = ref 0 in
  while !i < len do
    shuffle group;
    Array.iter
      (fun kind ->
        if kind = k_batch then begin
          push k_batch !writes;
          incr writes;
          if !writes mod tag_every_batches = 0 then push k_tag 0;
          if !writes mod retain_every_batches = 0 then push k_retain 0
        end
        else begin
          push kind (Random.State.int rng cfg.keys);
          if kind = k_insert then begin
            incr writes;
            if !writes mod tag_every_writes = 0 then push k_tag 0
          end
        end)
      group
  done;
  let bkeys =
    if cfg.shape <> Versioned_scan then [||]
    else begin
      let bkeys = Array.make (!writes * batch) 0 in
      let slot = Array.make batch 0 in
      for b = 0 to !writes - 1 do
        let n = ref 0 in
        while !n < batch do
          let k = Random.State.int rng cfg.keys in
          let dup = ref false in
          for j = 0 to !n - 1 do
            if slot.(j) = k then dup := true
          done;
          if not !dup then begin
            slot.(!n) <- k;
            incr n
          end
        done;
        Array.sort compare slot;
        Array.blit slot 0 bkeys (b * batch) batch
      done;
      bkeys
    end
  in
  { kind; key; rnd; bkeys; len }

(* ---- latency buffers ---- *)

module Lat = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make (1 lsl 18) 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then t.a <- Array.append t.a (Array.make t.n 0);
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  (* Nearest-rank quantile of samples [lo, hi), in microseconds; nan
     when the range is empty. *)
  let quantile_us t ~lo ~hi q =
    let n = hi - lo in
    if n <= 0 then Float.nan
    else begin
      let a = Array.sub t.a lo n in
      Array.sort compare a;
      let i = min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1) in
      float_of_int a.(max 0 i) /. 1e3
    end
end

(* ---- the client side: one connection or one router ---- *)

type conn = {
  find : int option -> int -> int option;  (** version, key *)
  insert : int -> int -> unit;
  insert_batch : (int * int) array -> unit;
  scan : int -> int -> (int * int) array;  (** version, lo: one page *)
  tag : unit -> int;
  retain : unit -> int * int;  (** (before, dropped) *)
  close : unit -> unit;
}

let unexpected what resp =
  failwith (Format.asprintf "%s: unexpected %a" what Net.Wire.pp_response resp)

let client_conn c =
  let call = Net.Client.call c in
  {
    find =
      (fun version key ->
        match call (Net.Wire.Find { key; version }) with
        | Net.Wire.Value v -> v
        | r -> unexpected "find" r);
    insert =
      (fun key value ->
        match call (Net.Wire.Insert { key; value }) with
        | Net.Wire.Ack -> ()
        | r -> unexpected "insert" r);
    insert_batch =
      (fun pairs ->
        match call (Net.Wire.Insert_batch { pairs }) with
        | Net.Wire.Ack -> ()
        | r -> unexpected "insert_batch" r);
    (* One [Client.scan] page: the same [Scan] frame, issued once. *)
    scan =
      (fun version lo ->
        match
          call (Net.Wire.Scan { lo; hi = max_int; version = Some version; limit = page })
        with
        | Net.Wire.Pairs p -> p
        | r -> unexpected "scan" r);
    tag = (fun () -> Net.Client.tag c);
    retain = (fun () -> Net.Client.retention c ~keep);
    close = (fun () -> Net.Client.close c);
  }

let ok = function Ok v -> v | Error e -> failwith (Router.error_to_string e)
let not_routed what _ = failwith (what ^ ": not part of the replicated workload")

let router_conn r =
  {
    find = (fun version key -> ok (Router.find r ?version key));
    insert = (fun key value -> ok (Router.insert r ~key ~value));
    insert_batch = not_routed "insert_batch";
    scan = (fun _ -> not_routed "scan");
    tag = (fun () -> ok (Router.tag r));
    retain = not_routed "retain";
    close = (fun () -> Router.close r);
  }

(* ---- set-up ---- *)

type system = {
  heap : Pmem.Pheap.t;
  store : Store.t;
  server : Server.t;
  replica : (Backup.t * Store.t * Repl.Chain.t) option;
}

let preload store keys =
  let n = Array.length keys in
  for p = 1 to preload_versions do
    let i = ref 0 in
    while !i < n do
      let lo = !i and hi = min n (!i + 4096) in
      Store.insert_batch store
        (List.init (hi - lo) (fun j -> (keys.(lo + j), Model.preload_value (lo + j) p)));
      i := hi
    done;
    ignore (Store.tag store)
  done

let new_store cfg keys =
  let heap = Pmem.Pheap.create_ram ~capacity:cfg.heap_bytes () in
  let store = Store.create heap in
  preload store keys;
  (heap, store)

let setup cfg keys ~ring ~dir ~nth =
  let sock role =
    Net.Sockaddr.Unix_sock
      (Filename.concat dir (Printf.sprintf "pb%d-%d%s.sock" (Unix.getpid ()) nth role))
  in
  let heap, store = new_store cfg keys in
  match cfg.shape with
  | Point | Versioned_scan ->
      let server = Server.start ~store ~workers:1 ~trace:ring ~listen:(sock "p") () in
      { heap; store; server; replica = None }
  | Replicated ->
      let _, bstore = new_store cfg keys in
      let backup =
        Backup.start ~store:bstore ~workers:1 ~trace:ring ~epoch_cell:(Atomic.make 0)
          ~listen:(sock "b") ()
      in
      let epoch_cell = Atomic.make 0 in
      let chain =
        Repl.Chain.create ~epoch_cell
          ~snapshot:(fun ?version () -> Store.extract_snapshot store ?version ())
          ~current_version:(fun () -> Store.current_version store)
          [| Backup.addr backup |]
      in
      let server =
        Server.start ~store ~workers:1 ~trace:ring ~epoch_cell
          ~on_mutation:(Layers.timed_hook (Repl.Chain.on_mutation chain))
          ~listen:(sock "p") ()
      in
      { heap; store; server; replica = Some (backup, bstore, chain) }

let connect sys keys ~trace_sample =
  match sys.replica with
  | None ->
      let c = Net.Client.connect (Server.addr sys.server) in
      Net.Client.ping c;
      client_conn c
  | Some (backup, _, _) ->
      let topo =
        Cluster.Topology.create_replicated ~key_bits
          [| [| Server.addr sys.server; Backup.addr backup |] |]
      in
      let r = Router.create ~trace_sample topo in
      ignore (ok (Router.find r keys.(0)));
      router_conn r

let stop_servers sys =
  (match sys.replica with Some (_, _, chain) -> Repl.Chain.close chain | None -> ());
  Server.stop sys.server;
  match sys.replica with Some (b, _, _) -> Backup.stop b | None -> ()

(* ---- running ops ---- *)

type state = {
  cfg : cfg;
  st : stream;
  keys : int array;
  model : Model.t;
  pstats : Pmem.Pstats.t;  (** the primary's heap *)
  reads : Lat.t;
  writes : Lat.t;
  mutable cur : int;  (** last tagged version *)
  mutable horizon : int;  (** GC horizon of the last retention *)
  mutable next_value : int;
  mutable pos : int;  (** next op, cycling over the stream *)
  mutable attempted : int;
  mutable failed : int;
  mutable traced : bool;
  (* counts, for per-op ratios *)
  mutable n_writes : int;
  mutable n_batches : int;
  mutable scan_keys : int;
  mutable retains : int;
  mutable dropped : int;
  mutable other_lines : int;  (** flushes of tags and GC, not writes *)
  mutable other_fences : int;
  (* the recorded (request, response) sample of the traced window *)
  sample_req : Net.Wire.request array;
  sample_resp : Net.Wire.response array;
  sample_read : bool array;
  mutable sample_n : int;
}

let fail s fmt =
  Printf.ksprintf
    (fun msg ->
      s.failed <- s.failed + 1;
      if s.failed <= 5 then prerr_endline ("perfbench: check failed: " ^ msg))
    fmt

let record s ~read req resp =
  if s.traced && s.sample_n < sample_cap then begin
    s.sample_req.(s.sample_n) <- req;
    s.sample_resp.(s.sample_n) <- resp;
    s.sample_read.(s.sample_n) <- read;
    s.sample_n <- s.sample_n + 1
  end

(* Time one client call, under a sampled root span when tracing. *)
let timed s lat name f =
  let t0 = now () in
  let r = if s.traced then Layers.root name f else f () in
  Lat.add lat (now () - t0);
  r

(* Bracket a tag or GC op with the primary's flush counters, so the
   per-write pmem ratios count writes only. *)
let not_a_write s f =
  let l0 = Pmem.Pstats.flushed_lines s.pstats and f0 = Pmem.Pstats.fences s.pstats in
  let r = f () in
  s.other_lines <- s.other_lines + Pmem.Pstats.flushed_lines s.pstats - l0;
  s.other_fences <- s.other_fences + Pmem.Pstats.fences s.pstats - f0;
  r

let exec s conn kind k rnd =
  let keys = s.keys in
  if kind = k_find || kind = k_find_at then begin
    let version = if kind = k_find then None else Some (1 + (rnd mod s.cur)) in
    let got = timed s s.reads "pb.op.read" (fun () -> conn.find version keys.(k)) in
    let want =
      Model.value_at s.model k (match version with None -> max_int | Some v -> v)
    in
    if got <> want then fail s "find %d at %s" keys.(k)
        (match version with None -> "latest" | Some v -> string_of_int v);
    record s ~read:true (Net.Wire.Find { key = keys.(k); version }) (Net.Wire.Value got)
  end
  else if kind = k_insert then begin
    let value = s.next_value in
    s.next_value <- value + 1;
    timed s s.writes "pb.op.write" (fun () -> conn.insert keys.(k) value);
    Model.write s.model k ~ver:(s.cur + 1) ~value;
    s.n_writes <- s.n_writes + 1;
    record s ~read:false (Net.Wire.Insert { key = keys.(k); value }) Net.Wire.Ack
  end
  else if kind = k_scan then begin
    let lo_v = max 1 s.horizon in
    let version = lo_v + (rnd mod (s.cur - lo_v + 1)) in
    let got = timed s s.reads "pb.op.read" (fun () -> conn.scan version keys.(k)) in
    let n = Array.length got in
    s.scan_keys <- s.scan_keys + n;
    if n <> min page (s.cfg.keys - k) then fail s "scan page of %d pairs" n
    else
      Array.iteri
        (fun j (key, v) ->
          if key <> keys.(k + j) || Some v <> Model.value_at s.model (k + j) version
          then fail s "scan at %d: pair %d is (%d, %d)" version j key v)
        got;
    record s ~read:true
      (Net.Wire.Scan { lo = keys.(k); hi = max_int; version = Some version; limit = page })
      (Net.Wire.Pairs got)
  end
  else if kind = k_batch then begin
    let value = s.next_value in
    s.next_value <- value + batch;
    let base = k * batch in
    let pairs = Array.init batch (fun j -> (keys.(s.st.bkeys.(base + j)), value + j)) in
    timed s s.writes "pb.op.write" (fun () -> conn.insert_batch pairs);
    for j = 0 to batch - 1 do
      Model.write s.model s.st.bkeys.(base + j) ~ver:(s.cur + 1) ~value:(value + j)
    done;
    s.n_writes <- s.n_writes + 1;
    s.n_batches <- s.n_batches + 1;
    record s ~read:false (Net.Wire.Insert_batch { pairs }) Net.Wire.Ack
  end
  else if kind = k_tag then begin
    let v = not_a_write s conn.tag in
    if v <> s.cur + 1 then fail s "tag answered %d, expected %d" v (s.cur + 1);
    s.cur <- v
  end
  else begin
    let t0 = Obs.Span.enter "pb.op.retain" in
    let before, dropped = not_a_write s conn.retain in
    Obs.Span.exit "pb.op.retain" t0;
    if before <> max 0 (s.cur - keep) then fail s "retention horizon %d" before;
    s.horizon <- max s.horizon before;
    s.retains <- s.retains + 1;
    s.dropped <- s.dropped + dropped
  end

let step s conn =
  let i = s.pos mod s.st.len in
  s.pos <- s.pos + 1;
  s.attempted <- s.attempted + 1;
  let kind = Char.code (Bytes.get s.st.kind i) in
  try exec s conn kind s.st.key.(i) s.st.rnd.(i)
  with e -> fail s "op %d raised %s" kind (Printexc.to_string e)

(* The window is cut into slices of at least 100 ms that each hold at
   least [slice_samples] reads and as many writes. The end-to-end rate
   and p50s are those of the best slice. On a shared VM the host slows
   the CPU in bursts: slices run at a fast or a slow speed, and the
   share of slow ones changes from minute to minute. The best slice is
   the program's own speed and repeats far more closely across runs
   than any average over the window. *)
let slice_ns = 100_000_000
let slice_samples = 128

type window = {
  ops : int;
  slices : int;
  rate : float;  (** best slice, ops/s *)
  read_p50 : float;  (** lowest slice p50, us *)
  write_p50 : float;
  read_p99 : float;  (** over the whole window, us *)
  write_p99 : float;
  scan_keys_per_s : float;  (** over the whole window *)
}

(* The closed loop: next op as soon as the previous one answered. *)
let window s conn ~seconds =
  let t0 = now () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let r_first = s.reads.n and w_first = s.writes.n and keys0 = s.scan_keys in
  let slices = ref [] in
  let start = ref t0 and ops = ref 0 and sops = ref 0 in
  let r0 = ref r_first and w0 = ref w_first in
  let t = ref t0 in
  while !t < deadline do
    step s conn;
    incr ops;
    incr sops;
    t := now ();
    if
      !t - !start >= slice_ns
      && s.reads.n - !r0 >= slice_samples
      && s.writes.n - !w0 >= slice_samples
    then begin
      let p50 lat lo = Lat.quantile_us lat ~lo ~hi:lat.n 0.5 in
      slices :=
        (float_of_int !sops /. secs (!t - !start), p50 s.reads !r0, p50 s.writes !w0)
        :: !slices;
      start := !t;
      sops := 0;
      r0 := s.reads.n;
      w0 := s.writes.n
    end
  done;
  (* A window too short for one whole slice is one slice. *)
  if !slices = [] then
    slices :=
      [
        ( float_of_int !sops /. secs (!t - !start),
          Lat.quantile_us s.reads ~lo:!r0 ~hi:s.reads.n 0.5,
          Lat.quantile_us s.writes ~lo:!w0 ~hi:s.writes.n 0.5 );
      ];
  let best pick f = List.fold_left (fun acc x -> pick acc (f x)) (f (List.hd !slices)) !slices in
  {
    ops = !ops;
    slices = List.length !slices;
    rate = best Float.max (fun (r, _, _) -> r);
    read_p50 = best Float.min (fun (_, r, _) -> r);
    write_p50 = best Float.min (fun (_, _, w) -> w);
    read_p99 = Lat.quantile_us s.reads ~lo:r_first ~hi:s.reads.n 0.99;
    write_p99 = Lat.quantile_us s.writes ~lo:w_first ~hi:s.writes.n 0.99;
    scan_keys_per_s = float_of_int (s.scan_keys - keys0) /. secs (!t - t0);
  }

(* ---- replays of the recorded sample ---- *)

(* Client encode + server decode of the request, server encode +
   client decode of the response: the codec's share of one round
   trip, per op class. *)
let codec_ns s ~read =
  let frame add x =
    let b = Buffer.create 256 in
    add b x;
    Buffer.to_bytes b
  in
  let items = ref [] in
  for i = s.sample_n - 1 downto 0 do
    if s.sample_read.(i) = read then
      items :=
        ( s.sample_req.(i),
          frame Net.Wire.add_request s.sample_req.(i),
          s.sample_resp.(i),
          frame (fun b -> Net.Wire.add_response b) s.sample_resp.(i) )
        :: !items
  done;
  let items = Array.of_list !items in
  let n = Array.length items in
  if n = 0 then 0.
  else begin
    let out = Buffer.create 65536 in
    let body b = Bytes.length b - Net.Wire.header_bytes in
    let pass () =
      Array.iter
        (fun (req, req_b, resp, resp_b) ->
          Buffer.clear out;
          Net.Wire.add_request out req;
          ignore (Net.Wire.decode_request req_b ~off:Net.Wire.header_bytes ~len:(body req_b));
          Buffer.clear out;
          Net.Wire.add_response out resp;
          ignore
            (Net.Wire.decode_response resp_b ~off:Net.Wire.header_bytes ~len:(body resp_b)))
        items
    in
    pass ();
    let reps = ref 0 and t0 = now () in
    while now () - t0 < 50_000_000 do
      pass ();
      incr reps
    done;
    float_of_int (now () - t0) /. float_of_int (!reps * n)
  end

(* The same requests applied straight to a store: no socket, no codec. *)
exception Page_full

let local_op_ns s store =
  let apply = function
    | Net.Wire.Find { key; version } -> ignore (Store.find store ?version key)
    | Net.Wire.Insert { key; value } -> Store.insert store key value
    | Net.Wire.Insert_batch { pairs } -> Store.insert_batch store (Array.to_list pairs)
    | Net.Wire.Scan { lo; hi; version; limit } -> (
        let n = ref 0 in
        try
          Store.iter_range store ?version ~lo ~hi (fun _ _ ->
              incr n;
              if !n >= limit then raise Page_full)
        with Page_full -> ())
    | _ -> ()
  in
  if s.sample_n = 0 then 0.
  else begin
    let t0 = now () in
    for i = 0 to s.sample_n - 1 do
      apply s.sample_req.(i)
    done;
    float_of_int (now () - t0) /. float_of_int s.sample_n
  end

(* ---- end-of-run checks ---- *)

let check_snapshot s store =
  s.attempted <- s.attempted + 1;
  let snap = Store.extract_snapshot store ~version:s.cur () in
  let bad = ref (if Array.length snap = s.cfg.keys then 0 else 1) in
  Array.iteri
    (fun i (k, v) ->
      if i < s.cfg.keys && (k <> s.keys.(i) || Some v <> Model.value_at s.model i s.cur)
      then incr bad)
    snap;
  if !bad > 0 then fail s "snapshot at %d: %d pairs differ from the model" s.cur !bad

let check_replica s sys =
  match sys.replica with
  | None -> ()
  | Some (_, bstore, chain) ->
      s.attempted <- s.attempted + 2;
      if not (Repl.Chain.in_sync chain) then fail s "backup out of sync";
      if Store.extract_snapshot bstore () <> Store.extract_snapshot sys.store () then
        fail s "backup snapshot differs from the primary's"

(* ---- metrics ---- *)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b

type counts = { lines : int; fences : int; fsaved : int; nsaved : int; alloc : int }

let pmem_counts p =
  {
    lines = Pmem.Pstats.flushed_lines p;
    fences = Pmem.Pstats.fences p;
    fsaved = Pmem.Pstats.flushes_saved p;
    nsaved = Pmem.Pstats.fences_saved p;
    alloc = Pmem.Pstats.alloc_bytes p;
  }

let emit ~correct ~attempted ~failed metrics =
  let open Obs.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, Obj [ ("value", Float v); ("unit", String unit) ]))
                   metrics) );
          ]))

let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-36s %16.4f %s\n" name v unit) metrics

(* ---- one run ---- *)

let run ~shape ~seed ~seconds ~trace ~out ~toy ~falsify =
  let cpu = last_cpu () in
  pin cpu;
  let cfg = config ~toy ~trace shape in
  Obs.Control.disable ();
  let rng = Random.State.make [| seed; Hashtbl.hash (shape_name shape) |] in
  let keys = gen_keys rng cfg.keys in
  let stream = gen_stream cfg rng in
  let check_idx = Array.init cfg.check_keys (fun _ -> Random.State.int rng cfg.keys) in
  let ring = Obs.Tracebuf.create ~capacity:16_384 in
  Obs.Tracebuf.install ring;
  (* Set-up: build, preload, serve and connect [cfg.setups] times,
     keeping the last system for the run. *)
  let setup_times = Array.make cfg.setups 0. in
  let last = ref None in
  for nth = 1 to cfg.setups do
    (match !last with
    | Some (sys, conn) ->
        conn.close ();
        stop_servers sys;
        last := None;
        Gc.full_major ()
    | None -> ());
    let t0 = now () in
    let sys = setup cfg keys ~ring ~dir:out ~nth in
    let conn = connect sys keys ~trace_sample:0.0 in
    setup_times.(nth - 1) <- secs (now () - t0);
    last := Some (sys, conn)
  done;
  let sys, conn = Option.get !last in
  let s =
    {
      cfg;
      st = stream;
      keys;
      model = Model.create ~n:cfg.keys ~preload_versions;
      pstats = Pmem.Pheap.stats sys.heap;
      reads = Lat.create ();
      writes = Lat.create ();
      cur = preload_versions;
      horizon = 0;
      next_value = 1 lsl 40;
      pos = 0;
      attempted = 0;
      failed = 0;
      traced = false;
      n_writes = 0;
      n_batches = 0;
      scan_keys = 0;
      retains = 0;
      dropped = 0;
      other_lines = 0;
      other_fences = 0;
      sample_req = Array.make sample_cap Net.Wire.Ping;
      sample_resp = Array.make sample_cap Net.Wire.Pong;
      sample_read = Array.make sample_cap false;
      sample_n = 0;
    }
  in
  (* Warm-up: a fixed op count, so the pmem counts over it and the
     space it leaves repeat exactly for a seed. *)
  let c0 = pmem_counts s.pstats in
  for _ = 1 to cfg.warmup do
    step s conn
  done;
  let c1 = pmem_counts s.pstats in
  let writes_w = s.n_writes and batches_w = s.n_batches in
  let lines_w = c1.lines - c0.lines - s.other_lines
  and fences_w = c1.fences - c0.fences - s.other_fences in
  let live_bytes = Pmem.Pstats.live_bytes s.pstats in
  let space_amp = float_of_int live_bytes /. float_of_int (16 * cfg.keys) in
  s.reads.n <- 0;
  s.writes.n <- 0;
  s.retains <- 0;
  s.dropped <- 0;
  Atomic.set Layers.falsify falsify;
  (* The timed window(s). *)
  let conn = ref conn in
  let gc0 = Gc.quick_stat () in
  let w = window s !conn ~seconds:(if trace then seconds /. 2. else seconds) in
  let gc1 = Gc.quick_stat () in
  let ops = w.ops in
  let layers =
    if not trace then []
    else begin
      (* Traced half: fresh registry, timed instrumentation on, every
         op under a sampled root span. *)
      if shape = Replicated then begin
        !conn.close ();
        conn := connect sys keys ~trace_sample:1.0
      end;
      Obs.Registry.reset ();
      s.retains <- 0;
      s.dropped <- 0;
      Obs.Control.enable ();
      s.traced <- true;
      let t = window s !conn ~seconds:(seconds /. 2.) in
      s.traced <- false;
      Obs.Control.disable ();
      let open Layers in
      let read_store = [ find_span; find_at_span; range_span ]
      and write_store = [ insert_span; batch_span ] in
      let rtt_r = span_mean [ "pb.op.read" ] and rtt_w = span_mean [ "pb.op.write" ] in
      let srv_r = span_mean [ "srv.find"; "srv.scan" ]
      and srv_w = span_mean [ "srv.insert"; "srv.insert_batch" ] in
      let store_r = span_mean read_store and store_w = span_mean write_store in
      (* forward spans per client write (zero without a chain) *)
      let fwd = span_mean [ forward_span ] in
      let fwd_w = per (span_count [ forward_span ]) (span_count [ "pb.op.write" ]) *. fwd in
      let codec_r = codec_ns s ~read:true and codec_w = codec_ns s ~read:false in
      let wait_r = rtt_r -. srv_r -. codec_r and wait_w = rtt_w -. srv_w -. codec_w in
      let share w rtt = if rtt = 0. then 0. else w /. rtt in
      [
        ("net.client.rtt_ns.read", "ns", rtt_r);
        ("net.client.rtt_ns.write", "ns", rtt_w);
        ("net.server.op_ns.read", "ns", srv_r);
        ("net.server.op_ns.write", "ns", srv_w);
        ("net.server.self_ns.read", "ns", if srv_r = 0. then 0. else srv_r -. store_r);
        ("net.server.self_ns.write", "ns", if srv_w = 0. then 0. else srv_w -. store_w -. fwd_w);
        ("net.codec_ns.read", "ns", codec_r);
        ("net.codec_ns.write", "ns", codec_w);
        ("net.wait_ns.read", "ns", wait_r);
        ("net.wait_ns.write", "ns", wait_w);
        ( "net.bytes_per_op",
          "B/op",
          per (counter "net.bytes_in" + counter "net.bytes_out") t.ops );
        ("mvdict.find_ns", "ns", span_mean [ find_span ]);
        ("mvdict.find_at_ns", "ns", span_mean [ find_at_span ]);
        ("mvdict.insert_ns", "ns", span_mean [ insert_span ]);
        ("mvdict.insert_batch_ns", "ns", span_mean [ batch_span ]);
        ("mvdict.iter_range_ns", "ns", span_mean [ range_span ]);
        ("mvdict.compact_ns", "ns", span_mean [ compact_span ]);
        ("repl.forward_ns", "ns", fwd);
        ("cluster.router_ns.read", "ns", span_mean [ "cluster.find" ]);
        ("cluster.router_ns.write", "ns", span_mean [ "cluster.insert" ]);
        ("gc.retain_ns", "ns", span_mean [ "pb.op.retain" ]);
        ("gc.dropped_per_call", "entries/call", per s.dropped s.retains);
        ("gc.pause_ns", "ns", mean [ hist "gc.pause_ns" ]);
        ( "runtime.minor_words_per_op",
          "words/op",
          (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int ops );
        ( "runtime.promoted_words_per_op",
          "words/op",
          (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. float_of_int ops );
        ( "runtime.major_gcs_per_kop",
          "gcs/kop",
          1e3 *. per (gc1.Gc.major_collections - gc0.Gc.major_collections) ops );
        ("obs.trace_overhead", "ratio", w.rate /. t.rate);
        ("read_p99_us", "us", w.read_p99);
        ("write_p99_us", "us", w.write_p99);
        ("ledger.unattributed_share.read", "ratio", share wait_r rtt_r);
        ("ledger.unattributed_share.write", "ratio", share wait_w rtt_w);
        ("pmem.flushed_lines_per_write", "lines/write", per lines_w writes_w);
        ("pmem.fences_per_write", "fences/write", per fences_w writes_w);
        ("pmem.flushes_saved_per_batch", "lines/batch", per (c1.fsaved - c0.fsaved) batches_w);
        ("pmem.fences_saved_per_batch", "fences/batch", per (c1.nsaved - c0.nsaved) batches_w);
        ("pmem.alloc_bytes_per_write", "B/write", per (c1.alloc - c0.alloc) writes_w);
        ("pmem.live_bytes", "B", float_of_int live_bytes);
      ]
    end
  in
  (* Tag everything, then check the primary (and the backup) against
     the model at that tag. *)
  (try
     let v = !conn.tag () in
     s.attempted <- s.attempted + 1;
     if v <> s.cur + 1 then fail s "final tag answered %d" v;
     s.cur <- v
   with e -> fail s "final tag raised %s" (Printexc.to_string e));
  check_snapshot s sys.store;
  check_replica s sys;
  let before =
    Array.map (fun i -> Store.find sys.store ~version:s.cur keys.(i)) check_idx
  in
  !conn.close ();
  stop_servers sys;
  pin (-1);
  (* Restart from the pmem image: reopen the heap, rebuild the index
     with two threads, answer one find. *)
  let recovered = ref sys.store in
  let recover_times =
    Array.init cfg.recoveries (fun _ ->
        let t0 = now () in
        let store = Store.open_existing ~threads:2 (Pmem.Pheap.reopen sys.heap) in
        ignore (Store.find store keys.(0));
        let dt = secs (now () - t0) in
        recovered := store;
        dt)
  in
  let recover_s = Array.fold_left Float.min Float.infinity recover_times in
  Array.iteri
    (fun j i ->
      s.attempted <- s.attempted + 1;
      if Store.find !recovered ~version:s.cur keys.(i) <> before.(j) then
        fail s "key %d differs after the restart" keys.(i))
    check_idx;
  let layers =
    if not trace then []
    else
      layers
      @ [
          ("mvdict.local_op_ns", "ns", local_op_ns s !recovered);
          ("recover_s", "s", recover_s);
          ("recover.keys_per_s", "keys/s", float_of_int cfg.keys /. recover_s);
        ]
  in
  let e2e =
    [
      ("setup_s", "s", median setup_times);
      ("ops_per_s", "1/s", w.rate);
      ("read_p50_us", "us", w.read_p50);
      ("write_p50_us", "us", w.write_p50);
      ("space_amp", "ratio", space_amp);
    ]
  in
  let error_share = per s.failed s.attempted in
  Printf.printf
    "perfbench %s seed=%d seconds=%g trace=%b: %d ops in %d slices of the window, \
     served on cpu %d\n"
    (shape_name shape) seed seconds trace ops w.slices cpu;
  if trace then print_metrics "per-layer (traced window):" layers
  else begin
    print_metrics "end-to-end:" e2e;
    if shape = Versioned_scan then
      print_metrics "versioned_scan names:"
        [
          ("scan_p50_us", "us", w.read_p50);
          ("batch_p50_us", "us", w.write_p50);
          ("scan_keys_per_s", "1/s", w.scan_keys_per_s);
        ]
  end;
  Printf.printf "  %-36s %16.6f ratio (%d of %d)\n" "error_share" error_share s.failed
    s.attempted;
  if trace then begin
    let path =
      Filename.concat out (Printf.sprintf "trace-%s-%d.json" (shape_name shape) seed)
    in
    let oc = open_out path in
    output_string oc (Obs.Json.to_string (Obs.Tracebuf.to_chrome_json ring));
    close_out oc;
    Printf.printf "  chrome trace of the last %d spans: %s\n" (Obs.Tracebuf.length ring)
      path
  end;
  emit ~correct:(s.failed = 0) ~attempted:s.attempted ~failed:s.failed
    (if trace then layers else e2e)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let out = ref Filename.current_dir_name and toy = ref false and falsify = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " point | versioned_scan | replicated");
      ("--seed", Arg.Set_int seed, " seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, " length of the timed window");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--out", Arg.Set_string out, " directory for sockets and the chrome trace");
      ("--toy", Arg.Set toy, " toy sizes (self-test)");
      ("--falsify", Arg.Set_int falsify, " falsify this many store answers (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  let shape =
    match !workload with
    | "point" -> Point
    | "versioned_scan" -> Versioned_scan
    | "replicated" -> Replicated
    | w ->
        prerr_endline ("perfbench: unknown workload " ^ w);
        exit 2
  in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: need --seed >= 0, --seconds > 0 and --trace 0|1";
    exit 2
  end;
  Obs.Clock.set_source (fun () -> Int64.to_int (Monotonic_clock.now ()));
  run ~shape ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out ~toy:!toy
    ~falsify:!falsify
