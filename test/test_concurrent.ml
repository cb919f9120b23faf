(* Tests for lib/concurrent: skip list (sequential + concurrent +
   properties against a reference Map), red-black tree, parallel
   utilities, backoff. *)

module IntMap = Map.Make (Int)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let int_skiplist () = Concurrent.Skiplist.create ~compare:Int.compare ()

(* Skiplist: sequential behaviour *)

let skiplist_empty () =
  let s = int_skiplist () in
  check_int "cardinal" 0 (Concurrent.Skiplist.cardinal s);
  check_bool "find misses" true (Concurrent.Skiplist.find s 42 = None)

let skiplist_insert_find () =
  let s = int_skiplist () in
  (match Concurrent.Skiplist.find_or_insert s 10 ~make:(fun () -> "ten") with
  | Concurrent.Skiplist.Added v -> check_bool "added" true (v = "ten")
  | _ -> Alcotest.fail "expected Added");
  check_bool "found" true (Concurrent.Skiplist.find s 10 = Some "ten");
  (match Concurrent.Skiplist.find_or_insert s 10 ~make:(fun () -> "TEN") with
  | Concurrent.Skiplist.Found v -> check_bool "existing wins" true (v = "ten")
  | _ -> Alcotest.fail "expected Found");
  check_int "cardinal" 1 (Concurrent.Skiplist.cardinal s)

let skiplist_sorted_iteration () =
  let s = int_skiplist () in
  let keys = Workload.Keygen.unique_keys ~seed:3 2000 in
  Array.iter
    (fun k ->
      ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k * 2)))
    keys;
  check_int "cardinal" 2000 (Concurrent.Skiplist.cardinal s);
  let prev = ref min_int and count = ref 0 and ok = ref true in
  Concurrent.Skiplist.iter s (fun k v ->
      if k <= !prev || v <> k * 2 then ok := false;
      prev := k;
      incr count);
  check_bool "ascending with right values" true !ok;
  check_int "iterated all" 2000 !count

let skiplist_iter_from () =
  let s = int_skiplist () in
  List.iter
    (fun k -> ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k)))
    [ 1; 5; 9; 13 ];
  let seen = ref [] in
  Concurrent.Skiplist.iter_from s 6 (fun k _ -> seen := k :: !seen);
  Alcotest.(check (list int)) "suffix from 6" [ 9; 13 ] (List.rev !seen);
  let seen = ref [] in
  Concurrent.Skiplist.iter_from s 5 (fun k _ -> seen := k :: !seen);
  Alcotest.(check (list int)) "inclusive bound" [ 5; 9; 13 ] (List.rev !seen)

let skiplist_fold () =
  let s = int_skiplist () in
  List.iter
    (fun k -> ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k)))
    [ 4; 2; 8 ];
  check_int "fold sum" 14
    (Concurrent.Skiplist.fold s ~init:0 ~f:(fun acc _ v -> acc + v))

let skiplist_make_called_once () =
  let s = int_skiplist () in
  let calls = ref 0 in
  ignore
    (Concurrent.Skiplist.find_or_insert s 1 ~make:(fun () ->
         incr calls;
         ()));
  ignore (Concurrent.Skiplist.find_or_insert s 1 ~make:(fun () -> incr calls));
  check_int "make called once" 1 !calls

(* Skiplist: concurrent behaviour (small domain counts; the container has
   one core, so these mostly exercise interleavings via preemption). *)

let skiplist_concurrent_disjoint_inserts () =
  let s = int_skiplist () in
  let threads = 4 and per = 2000 in
  ignore
    (Concurrent.Parallel.run ~threads (fun tid ->
         for i = 0 to per - 1 do
           let k = (i * threads) + tid in
           ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k))
         done));
  check_int "cardinal" (threads * per) (Concurrent.Skiplist.cardinal s);
  let prev = ref min_int and n = ref 0 and ok = ref true in
  Concurrent.Skiplist.iter s (fun k _ ->
      if k <= !prev then ok := false;
      prev := k;
      incr n);
  check_bool "sorted" true !ok;
  check_int "all reachable" (threads * per) !n

let skiplist_concurrent_same_keys () =
  (* All domains fight over the same keys: exactly one Added per key, and
     every raced speculative value is reported for cleanup. *)
  let s = int_skiplist () in
  let threads = 4 and keys = 500 in
  let added = Array.init threads (fun _ -> ref 0) in
  ignore
    (Concurrent.Parallel.run ~threads (fun tid ->
         for k = 0 to keys - 1 do
           match Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> (tid, k)) with
           | Concurrent.Skiplist.Added _ -> incr added.(tid)
           | Concurrent.Skiplist.Found _ | Concurrent.Skiplist.Raced _ -> ()
         done));
  let total_added = Array.fold_left (fun acc r -> acc + !(r)) 0 added in
  check_int "one winner per key" keys total_added;
  check_int "cardinal" keys (Concurrent.Skiplist.cardinal s)

let skiplist_concurrent_readers_during_inserts () =
  let s = int_skiplist () in
  let n = 3000 in
  let writer_done = Atomic.make false in
  let results =
    Concurrent.Parallel.run ~threads:3 (fun tid ->
        if tid = 0 then begin
          for k = 0 to n - 1 do
            ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k))
          done;
          Atomic.set writer_done true;
          0
        end
        else begin
          (* Readers: sorted iteration must never observe disorder. *)
          let violations = ref 0 in
          while not (Atomic.get writer_done) do
            let prev = ref min_int in
            Concurrent.Skiplist.iter s (fun k _ ->
                if k <= !prev then incr violations;
                prev := k)
          done;
          !violations
        end)
  in
  check_int "no order violations" 0 (results.(1) + results.(2))

(* Skiplist: model-based property test against Map *)

(* A random program over every index entry point. [Batch] installs an
   ascending key run through one finger cursor; [Scrub m] unlinks the
   keys divisible by [m]. Towers are sized to their level, so a descent
   that followed a link at a level its node is not linked at would
   index past the tower and raise. *)
type sl_op =
  | Ins of int * int
  | Batch of (int * int) list
  | Find of int
  | Range of int * int
  | Scrub of int

let print_sl_op = function
  | Ins (k, v) -> Printf.sprintf "ins %d=%d" k v
  | Batch kvs ->
      "batch "
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%d=%d" k v) kvs)
  | Find k -> Printf.sprintf "find %d" k
  | Range (lo, hi) -> Printf.sprintf "range [%d,%d)" lo hi
  | Scrub m -> Printf.sprintf "scrub %%%d" m

let gen_sl_op =
  let open QCheck.Gen in
  let key = int_bound 300 in
  frequency
    [
      (4, map2 (fun k v -> Ins (k, v)) key small_nat);
      (2, map (fun kvs -> Batch kvs) (list_size (int_bound 40) (pair key small_nat)));
      (3, map (fun k -> Find k) key);
      (2, map2 (fun a b -> Range (min a b, max a b)) key key);
      (1, map (fun m -> Scrub m) (int_range 2 7));
    ]

let check_outcome model k v = function
  | Concurrent.Skiplist.Added x -> (not (IntMap.mem k !model)) && x = v
  | Concurrent.Skiplist.Found x -> IntMap.find_opt k !model = Some x
  | Concurrent.Skiplist.Raced _ -> false

let sorted_bindings s =
  List.rev (Concurrent.Skiplist.fold s ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

(* Two domains insert interleaved fresh keys, one through
   [find_or_insert], one through ascending cursor batches. *)
let concurrent_phase s model =
  let base = 1000 and per = 400 in
  let mine i = base + (2 * i) and theirs i = base + (2 * i) + 1 in
  let other =
    Domain.spawn (fun () ->
        for i = 0 to per - 1 do
          let k = theirs i in
          ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k))
        done)
  in
  let cur = ref (Concurrent.Skiplist.cursor s) in
  for i = 0 to per - 1 do
    if i mod 32 = 0 then cur := Concurrent.Skiplist.cursor s;
    let k = mine i in
    ignore (Concurrent.Skiplist.find_or_insert_at !cur k ~make:(fun () -> k))
  done;
  Domain.join other;
  for i = 0 to (2 * per) - 1 do
    let k = base + i in
    model := IntMap.add k k !model
  done

let qcheck_skiplist_vs_map =
  let open QCheck in
  Test.make ~name:"skiplist agrees with Map on random programs" ~count:200
    (make ~print:(Print.list print_sl_op) (Gen.list gen_sl_op))
    (fun ops ->
      let s = int_skiplist () in
      let model = ref IntMap.empty in
      let step = function
        | Ins (k, v) ->
            let ok = check_outcome model k v
                (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> v)) in
            if not (IntMap.mem k !model) then model := IntMap.add k v !model;
            ok
        | Batch kvs ->
            let kvs = List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) kvs in
            let cur = Concurrent.Skiplist.cursor s in
            List.for_all
              (fun (k, v) ->
                let ok = check_outcome model k v
                    (Concurrent.Skiplist.find_or_insert_at cur k ~make:(fun () -> v)) in
                if not (IntMap.mem k !model) then model := IntMap.add k v !model;
                ok)
              kvs
        | Find k -> Concurrent.Skiplist.find s k = IntMap.find_opt k !model
        | Range (lo, hi) ->
            let got = ref [] in
            Concurrent.Skiplist.iter_range s ~lo ~hi (fun k v -> got := (k, v) :: !got);
            List.rev !got
            = List.filter (fun (k, _) -> k >= lo && k < hi) (IntMap.bindings !model)
        | Scrub m ->
            let dead, live = IntMap.partition (fun k _ -> k mod m = 0) !model in
            model := live;
            Concurrent.Skiplist.scrub s ~dead:(fun k _ -> k mod m = 0)
            = IntMap.cardinal dead
      in
      (* The towers stay well-formed after every step, scrubs included. *)
      let sequential_ok =
        List.for_all (fun op -> step op && Concurrent.Skiplist.validate s = Ok ()) ops
      in
      (* Same cardinality, same sorted association list, sound towers. *)
      let agrees () =
        sorted_bindings s = IntMap.bindings !model
        && Concurrent.Skiplist.cardinal s = IntMap.cardinal !model
        && Concurrent.Skiplist.validate s = Ok ()
      in
      let before = agrees () in
      concurrent_phase s model;
      sequential_ok && before && agrees ()
      && IntMap.for_all (fun k v -> Concurrent.Skiplist.find s k = Some v) !model)

let skiplist_find_allocates_nothing () =
  let s = int_skiplist () in
  let keys = 4096 in
  for k = 0 to keys - 1 do
    ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k))
  done;
  let iterations = 100_000 in
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to iterations do
    match Concurrent.Skiplist.find s (i land (keys - 1)) with
    | Some _ -> incr hits
    | None -> ()
  done;
  let w1 = Gc.minor_words () in
  check_int "every lookup hits" iterations !hits;
  (* Any per-lookup allocation would show up as >= [iterations] words. *)
  check_bool "no per-op allocation" true (w1 -. w0 < 64.0)

(* Four domains insert interleaved, overlapping key classes — domain
   [d] inserts the keys [k] with [k mod 4] in {[d], [d + 1]}, in
   ascending runs of 32 — two through [find_or_insert], two through a
   fresh cursor per run. Neighbouring keys are linked concurrently and
   every key is raced by two domains, so level-0 and upper-level CASes
   fail and re-search; afterwards (and after a scrub) every level must
   still be a sorted subsequence of the level below. Repeated on fresh
   lists, since one round rarely loses a race at the right moment. *)
let skiplist_tower_stress () =
  let keys = 2048 and run = 32 and domains = 4 in
  for _round = 1 to 50 do
    let s = int_skiplist () in
    let worker d () =
      let added = ref 0 in
      let count = function Concurrent.Skiplist.Added _ -> incr added | _ -> () in
      let mine k = k mod domains = d || k mod domains = (d + 1) mod domains in
      for r = 0 to (keys / run) - 1 do
        let cur = Concurrent.Skiplist.cursor s in
        for k = r * run to ((r + 1) * run) - 1 do
          if mine k then
            count
              (if d land 1 = 0 then Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k)
               else Concurrent.Skiplist.find_or_insert_at cur k ~make:(fun () -> k))
        done
      done;
      !added
    in
    let spawned = List.init domains (fun d -> Domain.spawn (worker d)) in
    let added = List.fold_left (fun acc d -> acc + Domain.join d) 0 spawned in
    check_int "each key added once" keys added;
    check_int "cardinal" keys (Concurrent.Skiplist.cardinal s);
    (match Concurrent.Skiplist.validate s with
    | Ok () -> ()
    | Error e -> Alcotest.failf "towers after the stress: %s" e);
    for k = 0 to keys - 1 do
      if Concurrent.Skiplist.find s k <> Some k then Alcotest.failf "key %d lost" k
    done;
    let removed = Concurrent.Skiplist.scrub s ~dead:(fun k _ -> k mod 3 = 0) in
    check_int "scrubbed" ((keys + 2) / 3) removed;
    (match Concurrent.Skiplist.validate s with
    | Ok () -> ()
    | Error e -> Alcotest.failf "towers after scrub: %s" e);
    check_bool "survivors found" true
      (Concurrent.Skiplist.find s 1 = Some 1 && Concurrent.Skiplist.find s 3 = None)
  done

(* Two domains insert the even and the odd keys, one through
   [find_or_insert] and one through a fresh cursor per run of 64, and
   meet at a spin barrier before every run, so they link neighbouring
   keys at the same moment. An upper-level link that lost a race must
   still leave every level a subsequence of the one below; an
   inserter that linked an upper level with the successor copied at
   allocation fails this in almost every round. *)
let skiplist_lockstep_inserts () =
  let keys = 2048 and run = 64 in
  for _round = 1 to 50 do
    let s = int_skiplist () in
    let arrived = Atomic.make 0 in
    let worker d () =
      for r = 0 to (keys / run) - 1 do
        Atomic.incr arrived;
        while Atomic.get arrived < 2 * (r + 1) do
          Domain.cpu_relax ()
        done;
        let cur = Concurrent.Skiplist.cursor s in
        for k = r * run to ((r + 1) * run) - 1 do
          if k land 1 = d then
            ignore
              (if d = 0 then Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k)
               else Concurrent.Skiplist.find_or_insert_at cur k ~make:(fun () -> k))
        done
      done
    in
    let other = Domain.spawn (worker 1) in
    worker 0 ();
    Domain.join other;
    check_int "cardinal" keys (Concurrent.Skiplist.cardinal s);
    match Concurrent.Skiplist.validate s with
    | Ok () -> ()
    | Error e -> Alcotest.failf "towers after lock-step inserts: %s" e
  done

let zero () = 0

(* A cursor seek of a present key stops at the key and allocates
   nothing: the only words a lookup through [find_or_insert_at]
   allocates are the 2 of the [Found] it returns. *)
let skiplist_cursor_seek_allocates_nothing () =
  let s = int_skiplist () in
  let keys = 4096 and rounds = 25 in
  for k = 0 to keys - 1 do
    ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k))
  done;
  let cursors = Array.init rounds (fun _ -> Concurrent.Skiplist.cursor s) in
  let found = ref 0 in
  let w0 = Gc.minor_words () in
  for r = 0 to rounds - 1 do
    for k = 0 to keys - 1 do
      match Concurrent.Skiplist.find_or_insert_at cursors.(r) k ~make:zero with
      | Concurrent.Skiplist.Found _ -> incr found
      | Concurrent.Skiplist.Added _ | Concurrent.Skiplist.Raced _ -> ()
    done
  done;
  let w1 = Gc.minor_words () in
  check_int "every seek finds its key" (keys * rounds) !found;
  check_bool "seeks allocate nothing beyond the Found box" true
    (w1 -. w0 -. float (2 * keys * rounds) < 64.0)

(* A fresh key costs its node (4 fields + header), its tower (level + 1
   words), [found] (2) and the returned [Added] (2): 10 + level words,
   and the mean level is 2. No per-link cells, no closures, no search
   state. *)
let skiplist_fresh_insert_words () =
  let s = int_skiplist () in
  let cur = Concurrent.Skiplist.cursor s in
  let n = 4096 in
  let w0 = Gc.minor_words () in
  for k = 0 to n - 1 do
    ignore (Concurrent.Skiplist.find_or_insert_at cur k ~make:zero)
  done;
  let per_insert = (Gc.minor_words () -. w0) /. float n in
  check_int "all added" n (Concurrent.Skiplist.cardinal s);
  if per_insert > 12.5 then
    Alcotest.failf "a fresh insert allocates %.2f words (bound 12.5)" per_insert

(* Red-black tree *)

let rbtree_basic () =
  let t = Concurrent.Rbtree.create ~compare:Int.compare () in
  check_bool "empty find" true (Concurrent.Rbtree.find t 1 = None);
  Concurrent.Rbtree.insert t 5 "five";
  Concurrent.Rbtree.insert t 3 "three";
  Concurrent.Rbtree.insert t 8 "eight";
  check_bool "find 3" true (Concurrent.Rbtree.find t 3 = Some "three");
  check_bool "find 9" true (Concurrent.Rbtree.find t 9 = None);
  check_int "cardinal" 3 (Concurrent.Rbtree.cardinal t);
  Concurrent.Rbtree.insert t 3 "THREE";
  check_bool "replace" true (Concurrent.Rbtree.find t 3 = Some "THREE");
  check_int "cardinal unchanged" 3 (Concurrent.Rbtree.cardinal t)

let rbtree_sorted_iter () =
  let t = Concurrent.Rbtree.create ~compare:Int.compare () in
  let keys = Workload.Keygen.unique_keys ~seed:9 5000 in
  Array.iter (fun k -> Concurrent.Rbtree.insert t k k) keys;
  let prev = ref min_int and count = ref 0 and ok = ref true in
  Concurrent.Rbtree.iter t (fun k _ ->
      if k <= !prev then ok := false;
      prev := k;
      incr count);
  check_bool "ascending" true !ok;
  check_int "all present" 5000 !count;
  check_bool "red-black invariants" true (Concurrent.Rbtree.invariants_ok t)

let rbtree_find_or_insert () =
  let t = Concurrent.Rbtree.create ~compare:Int.compare () in
  let v1 = Concurrent.Rbtree.find_or_insert t 1 ~make:(fun () -> ref 10) in
  let v2 = Concurrent.Rbtree.find_or_insert t 1 ~make:(fun () -> ref 20) in
  check_bool "same ref returned" true (v1 == v2)

let qcheck_rbtree_vs_map =
  let open QCheck in
  Test.make ~name:"rbtree agrees with Map and keeps invariants" ~count:200
    (list (pair small_int small_int))
    (fun ops ->
      let t = Concurrent.Rbtree.create ~compare:Int.compare () in
      let model = ref IntMap.empty in
      List.iter
        (fun (k, v) ->
          Concurrent.Rbtree.insert t k v;
          model := IntMap.add k v !model)
        ops;
      let bindings = ref [] in
      Concurrent.Rbtree.iter t (fun k v -> bindings := (k, v) :: !bindings);
      List.rev !bindings = IntMap.bindings !model
      && Concurrent.Rbtree.invariants_ok t)

(* Range scans *)

let skiplist_iter_range () =
  let s = int_skiplist () in
  List.iter
    (fun k -> ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k)))
    [ 2; 4; 6; 8; 10 ];
  let collect lo hi =
    let acc = ref [] in
    Concurrent.Skiplist.iter_range s ~lo ~hi (fun k _ -> acc := k :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "interior" [ 4; 6 ] (collect 3 8);
  Alcotest.(check (list int)) "inclusive lo" [ 4; 6; 8 ] (collect 4 9);
  Alcotest.(check (list int)) "exclusive hi" [ 4; 6 ] (collect 4 8);
  Alcotest.(check (list int)) "empty" [] (collect 11 20);
  Alcotest.(check (list int)) "all" [ 2; 4; 6; 8; 10 ] (collect min_int max_int)

let rbtree_iter_range () =
  let t = Concurrent.Rbtree.create ~compare:Int.compare () in
  List.iter (fun k -> Concurrent.Rbtree.insert t k k) [ 5; 1; 9; 3; 7 ];
  let collect lo hi =
    let acc = ref [] in
    Concurrent.Rbtree.iter_range t ~lo ~hi (fun k _ -> acc := k :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "interior" [ 3; 5; 7 ] (collect 2 8);
  Alcotest.(check (list int)) "bounds" [ 3; 5 ] (collect 3 7);
  Alcotest.(check (list int)) "empty" [] (collect 10 20)

let qcheck_range_vs_map =
  let open QCheck in
  Test.make ~name:"iter_range agrees with Map filtering" ~count:200
    (triple (list small_int) small_int small_int)
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let s = int_skiplist () in
      let t = Concurrent.Rbtree.create ~compare:Int.compare () in
      let model = ref IntMap.empty in
      (* Half the keys one at a time, the other half as one ascending
         cursor batch. *)
      let singles, batched = List.partition (fun k -> k land 1 = 0) keys in
      List.iter
        (fun k ->
          ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k)))
        singles;
      let cur = Concurrent.Skiplist.cursor s in
      List.iter
        (fun k ->
          ignore (Concurrent.Skiplist.find_or_insert_at cur k ~make:(fun () -> k)))
        (List.sort_uniq Int.compare batched);
      List.iter
        (fun k ->
          Concurrent.Rbtree.insert t k k;
          if not (IntMap.mem k !model) then model := IntMap.add k k !model)
        keys;
      let expected =
        List.filter (fun (k, _) -> k >= lo && k < hi) (IntMap.bindings !model)
      in
      let towers_ok = Concurrent.Skiplist.validate s = Ok () in
      let got_s = ref [] and got_t = ref [] and got_from = ref [] in
      Concurrent.Skiplist.iter_range s ~lo ~hi (fun k v -> got_s := (k, v) :: !got_s);
      Concurrent.Rbtree.iter_range t ~lo ~hi (fun k v -> got_t := (k, v) :: !got_t);
      Concurrent.Skiplist.iter_from s lo (fun k v -> got_from := (k, v) :: !got_from);
      (* Scrubbing the odd keys leaves the range equal to the even part. *)
      let odd = List.length (List.filter (fun (k, _) -> k land 1 = 1) (IntMap.bindings !model)) in
      let scrubbed = Concurrent.Skiplist.scrub s ~dead:(fun k _ -> k land 1 = 1) in
      let got_even = ref [] in
      Concurrent.Skiplist.iter_range s ~lo ~hi (fun k v -> got_even := (k, v) :: !got_even);
      List.rev !got_s = expected
      && List.sort compare (List.rev !got_t) = expected
      && List.rev !got_from = List.filter (fun (k, _) -> k >= lo) (IntMap.bindings !model)
      && scrubbed = odd
      && towers_ok
      && Concurrent.Skiplist.validate s = Ok ()
      && List.rev !got_even = List.filter (fun (k, _) -> k land 1 = 0) expected)

(* RW lock *)

let rwlock_mutual_exclusion () =
  let lock = Concurrent.Rwlock.create () in
  let counter = ref 0 in
  let threads = 4 and per = 2000 in
  ignore
    (Concurrent.Parallel.run ~threads (fun _ ->
         for _ = 1 to per do
           Concurrent.Rwlock.write lock (fun () ->
               let v = !counter in
               counter := v + 1)
         done));
  check_int "no lost increments" (threads * per) !counter

let rwlock_readers_share () =
  let lock = Concurrent.Rwlock.create () in
  let peak = Atomic.make 0 in
  ignore
    (Concurrent.Parallel.run ~threads:4 (fun _ ->
         for _ = 1 to 200 do
           Concurrent.Rwlock.read lock (fun () ->
               let now = Concurrent.Rwlock.readers lock in
               let rec bump () =
                 let best = Atomic.get peak in
                 if now > best && not (Atomic.compare_and_set peak best now) then bump ()
               in
               bump ())
         done));
  check_bool "lock works under reader load" true (Atomic.get peak >= 1)

let rwlock_writer_sees_consistent_state () =
  let lock = Concurrent.Rwlock.create () in
  let a = ref 0 and b = ref 0 in
  let torn = Atomic.make 0 in
  ignore
    (Concurrent.Parallel.run ~threads:3 (fun tid ->
         if tid = 0 then
           for i = 1 to 3000 do
             Concurrent.Rwlock.write lock (fun () ->
                 a := i;
                 b := i)
           done
         else
           for _ = 1 to 3000 do
             Concurrent.Rwlock.read lock (fun () ->
                 if !a <> !b then ignore (Atomic.fetch_and_add torn 1))
           done));
  check_int "readers never observe a torn write" 0 (Atomic.get torn)

(* Parallel *)

let parallel_results_in_order () =
  let r = Concurrent.Parallel.run ~threads:4 (fun tid -> tid * tid) in
  Alcotest.(check (array int)) "results" [| 0; 1; 4; 9 |] r

let parallel_single_thread_inline () =
  let r = Concurrent.Parallel.run ~threads:1 (fun tid -> tid + 100) in
  Alcotest.(check (array int)) "inline" [| 100 |] r

let parallel_exception_propagates () =
  Alcotest.check_raises "worker failure" (Failure "worker 2") (fun () ->
      ignore
        (Concurrent.Parallel.run ~threads:4 (fun tid ->
             if tid = 2 then failwith "worker 2")))

let parallel_iter_chunks () =
  let a = Array.init 10 (fun i -> i) in
  let sums = Array.make 3 0 in
  Concurrent.Parallel.iter_chunks ~threads:3 a (fun tid chunk ->
      sums.(tid) <- Array.fold_left ( + ) 0 chunk);
  check_int "total preserved" 45 (Array.fold_left ( + ) 0 sums)

let parallel_barrier () =
  let await = Concurrent.Parallel.make_barrier ~parties:3 in
  let phase = Atomic.make 0 in
  let results =
    Concurrent.Parallel.run ~threads:3 (fun _ ->
        ignore (Atomic.fetch_and_add phase 1);
        await ();
        (* After the barrier every domain must observe all increments. *)
        Atomic.get phase)
  in
  Array.iter (fun seen -> check_int "all arrived before release" 3 seen) results

let backoff_bounded () =
  let b = Concurrent.Backoff.create ~min:1 ~max:4 () in
  (* Just exercise the growth/reset paths. *)
  for _ = 1 to 10 do
    Concurrent.Backoff.once b
  done;
  Concurrent.Backoff.reset b;
  Concurrent.Backoff.once b;
  check_bool "alive" true true

let backoff_jitter_decorrelated () =
  (* Delays stay within [min, max] under jitter, and the schedule is
     deterministic for a given seed. *)
  let schedule seed =
    let b = Concurrent.Backoff.create ~min:2 ~max:64 ~jitter:true ~seed () in
    List.init 20 (fun _ ->
        let d = Concurrent.Backoff.current b in
        Concurrent.Backoff.once b;
        d)
  in
  List.iter
    (fun d -> check_bool "delay within [min,max]" true (d >= 2 && d <= 64))
    (schedule 42);
  check_bool "seeded schedule is reproducible" true (schedule 42 = schedule 42);
  (* The point of jitter: two contenders created side by side must NOT
     walk identical delay sequences (the lockstep re-dial storm). With
     distinct seeds, 20 draws over [2,64] colliding at every step is
     ~impossible; without jitter both schedules are the same doubling. *)
  check_bool "distinct instances decorrelate" true (schedule 1 <> schedule 2);
  let unjittered () =
    let b = Concurrent.Backoff.create ~min:2 ~max:64 () in
    List.init 20 (fun _ ->
        let d = Concurrent.Backoff.current b in
        Concurrent.Backoff.once b;
        d)
  in
  check_bool "no jitter means lockstep doubling" true (unjittered () = unjittered ())

let () =
  Alcotest.run "concurrent"
    [
      ( "skiplist",
        [
          Alcotest.test_case "empty" `Quick skiplist_empty;
          Alcotest.test_case "insert/find" `Quick skiplist_insert_find;
          Alcotest.test_case "sorted iteration" `Quick skiplist_sorted_iteration;
          Alcotest.test_case "iter_from" `Quick skiplist_iter_from;
          Alcotest.test_case "fold" `Quick skiplist_fold;
          Alcotest.test_case "make called once" `Quick skiplist_make_called_once;
          Alcotest.test_case "concurrent disjoint inserts" `Quick
            skiplist_concurrent_disjoint_inserts;
          Alcotest.test_case "concurrent same keys" `Quick skiplist_concurrent_same_keys;
          Alcotest.test_case "readers during inserts" `Quick
            skiplist_concurrent_readers_during_inserts;
          QCheck_alcotest.to_alcotest qcheck_skiplist_vs_map;
          Alcotest.test_case "find allocates nothing" `Quick
            skiplist_find_allocates_nothing;
          Alcotest.test_case "cursor seek allocates nothing" `Quick
            skiplist_cursor_seek_allocates_nothing;
          Alcotest.test_case "fresh insert words bound" `Quick
            skiplist_fresh_insert_words;
        ] );
      ( "stress",
        [
          Alcotest.test_case "4-domain overlapping inserts keep towers valid" `Quick
            skiplist_tower_stress;
          Alcotest.test_case "2-domain lock-step inserts keep towers valid" `Quick
            skiplist_lockstep_inserts;
        ] );
      ( "rbtree",
        [
          Alcotest.test_case "basic" `Quick rbtree_basic;
          Alcotest.test_case "sorted iter + invariants" `Quick rbtree_sorted_iter;
          Alcotest.test_case "find_or_insert" `Quick rbtree_find_or_insert;
          QCheck_alcotest.to_alcotest qcheck_rbtree_vs_map;
        ] );
      ( "range",
        [
          Alcotest.test_case "skiplist iter_range" `Quick skiplist_iter_range;
          Alcotest.test_case "rbtree iter_range" `Quick rbtree_iter_range;
          QCheck_alcotest.to_alcotest qcheck_range_vs_map;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "mutual exclusion" `Quick rwlock_mutual_exclusion;
          Alcotest.test_case "readers share" `Quick rwlock_readers_share;
          Alcotest.test_case "no torn reads" `Quick rwlock_writer_sees_consistent_state;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "results in order" `Quick parallel_results_in_order;
          Alcotest.test_case "single thread inline" `Quick parallel_single_thread_inline;
          Alcotest.test_case "exception propagates" `Quick parallel_exception_propagates;
          Alcotest.test_case "iter_chunks" `Quick parallel_iter_chunks;
          Alcotest.test_case "barrier" `Quick parallel_barrier;
          Alcotest.test_case "backoff" `Quick backoff_bounded;
          Alcotest.test_case "backoff jitter decorrelates" `Quick
            backoff_jitter_decorrelated;
        ] );
    ]
