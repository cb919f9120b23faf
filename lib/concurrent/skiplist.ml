(* A node's tower is one plain array of links, as tall as its drawn
   level (the mean level is 2 at p = 1/2), like the reference
   [std::vector<std::atomic<node_t*>> next]. Links are read with plain
   array loads and linked with [cas_link]; no link has a box of its
   own, so a hop costs two dependent loads (tower, then node), not
   three. Every descent starts at [top - 1], so it only ever follows a
   level-[l] link out of the head or out of a node reached at level
   [l], and such a node's tower is taller than [l] by construction.
   [found] is [Some value], allocated once here so [find] can return it
   without allocating; walks read [value] and never touch it.

   Why plain loads are enough: [key], [value] and [found] are
   immutable, and a node's tower slots are written (at allocation, or
   by its own inserter just before it links an upper level) before the
   CAS that links the node at that level — nobody reads slot [l] before the
   node is reachable at level [l]. On amd64 a plain load is the same
   instruction as [Atomic.get] and the CAS is a full barrier. A stale
   successor read is a valid older straddle, because outside [scrub]
   (which runs with exclusive access) the structure is insert-only. *)
type ('k, 'v) node =
  | Nil
  | Node of {
      key : 'k;
      value : 'v;
      found : 'v option;
      next : ('k, 'v) node array;
    }

type ('k, 'v) t = {
  compare : 'k -> 'k -> int;
  head : ('k, 'v) node array;
  count : int Atomic.t;
  top : int Atomic.t;
  level_seed : int Atomic.t;
}

type 'v insert_outcome =
  | Added of 'v
  | Found of 'v
  | Raced of { made : 'v; existing : 'v }

(* [cas tower level expected desired]: the runtime's field CAS (with
   its GC write barrier) on one tower slot. The stub does no bounds
   check, hence the explicit one in [cas_link]. *)
external cas :
  ('k, 'v) node array -> int -> ('k, 'v) node -> ('k, 'v) node -> bool
  = "mvkv_skiplist_cas"
[@@noalloc]

let cas_link tower level expected desired =
  if level >= Array.length tower then invalid_arg "Skiplist: link above tower";
  cas tower level expected desired

let max_level = 24

let create ~compare () =
  {
    compare;
    head = Array.make max_level Nil;
    count = Atomic.make 0;
    top = Atomic.make 1;
    level_seed = Atomic.make 0x9e3779b9;
  }

(* Deterministic per-insert level draw: hash a shared counter, count
   trailing ones (p = 1/2 per level). Cheaper and more reproducible than
   per-domain RNG state. *)
let random_level t =
  let z = Atomic.fetch_and_add t.level_seed 0x61c88647 in
  let z = (z lxor (z lsr 16)) * 0x45d9f3b land max_int in
  let z = (z lxor (z lsr 16)) * 0x45d9f3b land max_int in
  let z = z lxor (z lsr 16) in
  let rec count_ones bits level =
    if level >= max_level || bits land 1 = 0 then level
    else count_ones (bits lsr 1) (level + 1)
  in
  count_ones z 1

(* Descents start at [top - 1]: levels at and above [top] hold no
   nodes. A stale (lower) [top] is safe because an inserter bumps [top]
   before it makes any link above level 0 — a descent that read the old
   value only misses express lanes, never a key (every key is linked at
   level 0). The descents are top-level recursive functions, not local
   closures, so a lookup allocates nothing. *)
let start_level t = Atomic.get t.top - 1

(* Algorithm 2: walk down from the top level recording, per level, the
   tower of the predecessor (the CAS target) and the successor node.
   Meeting the key at any level ends the descent with that node: the
   caller only needs the towers of an absent key. Nodes are unlinked
   only by [scrub], which excludes searches. *)
let rec towers_from t key preds succs level pred_next =
  match pred_next.(level) with
  | Node n as cur ->
      let cmp = t.compare n.key key in
      if cmp < 0 then towers_from t key preds succs level n.next
      else if cmp = 0 then cur
      else towers_below t key preds succs level pred_next cur
  | Nil -> towers_below t key preds succs level pred_next Nil

and towers_below t key preds succs level pred_next succ =
  preds.(level) <- pred_next;
  succs.(level) <- succ;
  if level > 0 then towers_from t key preds succs (level - 1) pred_next else Nil

let find_towers t key preds succs =
  towers_from t key preds succs (start_level t) t.head

(* Read-only descent: no towers recorded, and a match at any level ends
   it. *)
let rec find_from t key level pred_next =
  match pred_next.(level) with
  | Nil -> if level = 0 then None else find_from t key (level - 1) pred_next
  | Node n ->
      let c = t.compare n.key key in
      if c < 0 then find_from t key level n.next
      else if c = 0 then n.found
      else if level = 0 then None
      else find_from t key (level - 1) pred_next

let find t key = find_from t key (start_level t) t.head

(* Level-0 successor of [key]: the first node whose key is >= [key]. *)
let rec lower_bound t key level pred_next =
  match pred_next.(level) with
  | Node n when t.compare n.key key < 0 -> lower_bound t key level n.next
  | cur -> if level = 0 then cur else lower_bound t key (level - 1) pred_next

let rec bump_top t level =
  let current = Atomic.get t.top in
  if level > current && not (Atomic.compare_and_set t.top current level) then
    bump_top t level

(* Search state for one insert. A head search ([find_or_insert]) uses
   only [list], [c_preds] and [c_succs]; a finger cursor also keeps
   [c_pred_nodes] across seeks.

   Finger cursors (Jiffy-style batch installs): the recorded
   predecessor towers of one search are valid starting points for the
   next search as long as keys are sought in ascending order — a
   stored pred's key stays strictly below every later target, and the
   structure is insert-only so the towers remain reachable. Each level
   resumes from where the previous search left it OR from the
   predecessor the level above just found, whichever is further along
   (threading the descent down as an ordinary search would — a node
   reached via level-l links is linked at every lower level too). The
   finger alone would leave level 0 walking from wherever the batch
   started; the threaded descent keeps each seek logarithmic, and the
   fingers make a sorted batch's seeks one amortized walk over its
   span. *)
type ('k, 'v) cursor = {
  list : ('k, 'v) t;
  c_preds : ('k, 'v) node array array;
  c_pred_nodes : ('k, 'v) node array;
      (* the node whose tower c_preds.(l) is; Nil = head *)
  c_succs : ('k, 'v) node array;
  mutable c_primed : bool;
      (* false until the first seek: unprimed fingers all claim
         head-to-Nil and must not be adopted *)
}

let cursor t =
  {
    list = t;
    c_preds = Array.make max_level t.head;
    c_pred_nodes = Array.make max_level Nil;
    c_succs = Array.make max_level Nil;
    c_primed = false;
  }

(* One level of a seek: walk right from [pred] (Nil = the head), whose
   tower is [pred_next], record the straddle of [key], and say whether
   the recorded successor is [key]'s node. *)
let rec seek_level c key level pred pred_next =
  match pred_next.(level) with
  | Node n as cur ->
      let cmp = c.list.compare n.key key in
      if cmp < 0 then seek_level c key level cur n.next
      else seek_record c level pred pred_next cur (cmp = 0)
  | Nil -> seek_record c level pred pred_next Nil false

and seek_record c level pred pred_next succ met =
  c.c_preds.(level) <- pred_next;
  c.c_pred_nodes.(level) <- pred;
  c.c_succs.(level) <- succ;
  met

let walk_level c key level start =
  seek_level c key level start
    (match start with Node s -> s.next | Nil -> c.list.head)

(* The fast path that makes the fingers pay: a level whose recorded
   predecessor still points at its recorded successor (one load) with
   that successor >= [key] is untouched — adopt it without walking.
   Ascending seeks skip almost every level this way and only walk the
   few whose window actually moved. The skip is safe exactly because it
   is validated against the live slot: the pair it keeps is a true
   (pred, succ) straddle of [key] at that instant, and any staleness
   that develops afterwards is caught by the insert CAS, whose retry
   re-seeks with [retry] set and therefore walks every level.

   A seek returns [key]'s node as soon as it meets it at any level (on
   a skipped level too); the levels below keep their older fingers,
   which stay valid for later, larger keys. Only an absent key gets a
   full descent and full towers. A [retry] seek is a CAS-retry
   re-search: it walks every level and stops early only at level 0, so
   a failed insert leaves every level freshly recorded. *)
let rec seek_from c key retry level carry =
  let t = c.list in
  let finger = c.c_pred_nodes.(level) in
  let start =
    match (carry, finger) with
    | (Node _ as carried), Nil -> carried
    | (Node cn as carried), Node fn when t.compare cn.key fn.key > 0 -> carried
    | _ -> finger
  in
  let succ = c.c_succs.(level) in
  let met =
    if
      c.c_primed && (not retry) && start == finger
      && c.c_preds.(level).(level) == succ
    then
      match succ with
      | Nil -> false
      | Node s ->
          let cmp = t.compare s.key key in
          if cmp >= 0 then cmp = 0 else walk_level c key level start
    else walk_level c key level start
  in
  if met && ((not retry) || level = 0) then c.c_succs.(level)
  else if level = 0 then Nil
  else
    seek_from c key retry (level - 1)
      (match c.c_pred_nodes.(level) with Node _ as p -> p | Nil -> carry)

(* Levels at and above [top] hold no nodes, so the cursor's init state
   (head pred, Nil succ) stays a valid straddle there; starting at
   [top - 1] skips them wholesale. A racing taller insert is caught by
   the CAS, and its bump of [top] happens before its upper links, so
   the retry's re-seek covers the new levels. *)
let seek c key retry =
  let found = seek_from c key retry (start_level c.list) Nil in
  c.c_primed <- true;
  found

(* The head search for [attempt] ([seek] is the finger one); top-level
   so passing either allocates nothing. *)
let head_search c key _retry = find_towers c.list key c.c_preds c.c_succs

let backoff_once backoff =
  let b = match backoff with Some b -> b | None -> Backoff.create () in
  Backoff.once b;
  Some b

(* Link [node] at level [lvl] (it is already linked at every level
   below). The node's own slot is first pointed at the recorded
   successor: a re-search after a failed CAS at a lower level has
   refreshed the straddles of every level above it too, so the slot
   copied at allocation may be stale. That is a plain write, since
   nobody reads slot [lvl] before the node is linked there. A failed
   CAS re-runs the search, which records a fresh straddle at [lvl]:
   our node is not yet linked at [lvl] or above, so the search cannot
   meet it before recording that level. *)
let rec link search c key node next lvl backoff =
  let succ = c.c_succs.(lvl) in
  if next.(lvl) != succ then next.(lvl) <- succ;
  if not (cas_link c.c_preds.(lvl) lvl succ node) then begin
    let backoff = backoff_once backoff in
    ignore (search c key true);
    link search c key node next lvl backoff
  end

(* Shared insertion body: [search] fills [c]'s preds/succs for the key
   and returns its node if present; it is re-run (with [retry]) after
   every failed CAS. [made] memoises the speculative value so [make]
   runs at most once across retries, and the backoff state is created
   on the first failed CAS, so an uncontended insert of a fresh key
   allocates only its node, tower and [found] (plus the outcome). *)
let rec attempt search c key make made backoff =
  match search c key (Option.is_some made) with
  | Node existing -> (
      match made with
      | None -> Found existing.value
      | Some made -> Raced { made; existing = existing.value })
  | Nil ->
      let t = c.list in
      let value = match made with Some v -> v | None -> make () in
      let level = random_level t in
      let next = Array.sub c.c_succs 0 level in
      let node = Node { key; value; found = Some value; next } in
      if not (cas_link c.c_preds.(0) 0 c.c_succs.(0) node) then
        attempt search c key make (Some value) (backoff_once backoff)
      else begin
        (* Linearized: the key is now reachable at level 0. Link the
           upper levels best-effort; competitors may force re-searches. *)
        ignore (Atomic.fetch_and_add t.count 1);
        bump_top t level;
        for lvl = 1 to level - 1 do
          link search c key node next lvl backoff
        done;
        Added value
      end

let find_or_insert t key ~make =
  let c =
    {
      list = t;
      c_preds = Array.make max_level t.head;
      c_pred_nodes = [||];
      c_succs = Array.make max_level Nil;
      c_primed = false;
    }
  in
  attempt head_search c key make None None

let find_or_insert_at c key ~make = attempt seek c key make None None

(* Load a node's line now, so its cache miss overlaps whatever the
   caller does next. *)
let touch = function
  | Node n -> ignore (Sys.opaque_identity n.value)
  | Nil -> ()

(* A level-0 walk is a chain of dependent cache misses. The successor
   is loaded and touched before the callback runs, so its misses
   overlap the callback's own. *)
let rec walk f = function
  | Nil -> ()
  | Node n ->
      let next = n.next.(0) in
      touch next;
      f n.key n.value;
      walk f next

let iter t f = walk f t.head.(0)
let iter_from t key f = walk f (lower_bound t key (start_level t) t.head)

let rec walk_below t hi f = function
  | Node n when t.compare n.key hi < 0 ->
      let next = n.next.(0) in
      touch next;
      f n.key n.value;
      walk_below t hi f next
  | Node _ | Nil -> ()

let iter_range t ~lo ~hi f =
  walk_below t hi f (lower_bound t lo (start_level t) t.head)

(* Physically unlink every node matching [dead] at all levels, the
   vordered-kv scrub idiom: per level, walk the pred's tower and
   skip-link over dead nodes. Plain writes are enough because the
   caller guarantees exclusive access (the store quiesces around GC) —
   this structure has no concurrent removal protocol. *)
let scrub t ~dead =
  let removed = ref 0 in
  for level = start_level t downto 0 do
    let rec sweep pred_next =
      match pred_next.(level) with
      | Nil -> ()
      | Node n ->
          if dead n.key n.value then begin
            pred_next.(level) <- n.next.(level);
            if level = 0 then incr removed;
            sweep pred_next
          end
          else sweep n.next
    in
    sweep t.head
  done;
  if !removed > 0 then ignore (Atomic.fetch_and_add t.count (- !removed));
  !removed

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let cardinal t = Atomic.get t.count
let height t = Atomic.get t.top

(* Structural check for tests, on a quiescent list: every level is
   strictly ascending and reachable only through towers tall enough,
   each level is a subsequence of the level below, levels at and above
   [top] are empty, and level 0 holds [cardinal] nodes. *)
let validate t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* the nodes linked at [level], in list order *)
  let rec level_nodes level acc = function
    | Nil -> List.rev acc
    | Node n as cur ->
        (match acc with
        | Node p :: _ when t.compare p.key n.key >= 0 ->
            fail "level %d is not strictly ascending" level
        | _ -> ());
        if Array.length n.next <= level then
          fail "level %d links a node with a shorter tower" level;
        level_nodes level (cur :: acc) n.next.(level)
  in
  (* is [upper] a subsequence of [lower] (by physical identity)? *)
  let rec subsequence upper lower =
    match (upper, lower) with
    | [], _ -> true
    | _ :: _, [] -> false
    | u :: us, l :: ls -> if u == l then subsequence us ls else subsequence upper ls
  in
  let top = height t in
  let rec check level below =
    if level < max_level then begin
      let nodes = level_nodes level [] t.head.(level) in
      if level >= top && nodes <> [] then
        fail "level %d is at or above top %d but not empty" level top;
      if level = 0 && List.length nodes <> cardinal t then
        fail "level 0 holds %d nodes, cardinal is %d" (List.length nodes) (cardinal t);
      if level > 0 && not (subsequence nodes below) then
        fail "level %d is not a subsequence of level %d" level (level - 1);
      check (level + 1) nodes
    end
  in
  match check 0 [] with () -> Ok () | exception Failure e -> Error e
