module type BACKEND = sig
  type t
  type value

  val capacity : t -> int
  val ensure : t -> int -> unit
  val write_entry : t -> int -> version:int -> value -> unit
  val set_finished : t -> int -> int -> unit
  val read_version : t -> int -> int
  val read_value : t -> int -> value
  val read_finished : t -> int -> int
end

module Make (B : BACKEND) = struct
  type t = {
    backend : B.t;
    pending : int Atomic.t;
    tail : int Atomic.t;
    (* Growth exclusion: [growing] is 1 while a growth is in flight (0
       otherwise); [writers] counts in-flight entry writers. Growth is
       rare (doubling), so the flag is almost never observed set. *)
    writers : int Atomic.t;
    growing : int Atomic.t;
  }

  let wrap backend ~length =
    {
      backend;
      pending = Atomic.make length;
      tail = Atomic.make length;
      writers = Atomic.make 0;
      growing = Atomic.make 0;
    }

  let backend t = t.backend

  (* Claim the next slot. A slot is claimed (by CAS on [pending]) only
     once the capacity already covers it, so an uncovered [pending]
     first needs a growth: the appender that wins the [growing] flag
     drains in-flight writers, grows, and clears the flag; the others
     spin and retry. A growth that raises (heap exhaustion) clears the
     flag on its way out and leaves nothing claimed — the next appender
     simply retries the growth, and every unfinished slot below
     [pending] belongs to a live appender that will write and stamp it.
     It also keeps [pending <= capacity], so readers walking up to
     [pending] never index past the buffer. *)
  let rec claim t =
    let slot = Atomic.get t.pending in
    if slot < B.capacity t.backend then
      if Atomic.compare_and_set t.pending slot (slot + 1) then slot else claim t
    else begin
      if Atomic.compare_and_set t.growing 0 1 then begin
        match
          while Atomic.get t.writers > 0 do
            Domain.cpu_relax ()
          done;
          B.ensure t.backend (slot + 1)
        with
        | () -> Atomic.set t.growing 0
        | exception e ->
            Atomic.set t.growing 0;
            raise e
      end
      else Domain.cpu_relax ();
      claim t
    end

  (* Enter the writer section: must not overlap a growth. *)
  let rec writer_enter t =
    while Atomic.get t.growing <> 0 do
      Domain.cpu_relax ()
    done;
    ignore (Atomic.fetch_and_add t.writers 1);
    if Atomic.get t.growing <> 0 then begin
      ignore (Atomic.fetch_and_add t.writers (-1));
      writer_enter t
    end

  let writer_exit t = ignore (Atomic.fetch_and_add t.writers (-1))

  (* Non-decreasing versions per history: wait for the predecessor's
     version word and take the max (see interface). *)
  let rec prev_version t slot =
    let v = B.read_version t.backend (slot - 1) in
    if v = 0 then begin
      Domain.cpu_relax ();
      prev_version t slot
    end
    else v

  let ordered_version t slot version =
    if slot = 0 then version else max version (prev_version t slot)

  let append t ~ctx ~board ~version value =
    if version < 1 then invalid_arg "Lazy_tail.append: version must be >= 1";
    let slot = claim t in
    let version = ordered_version t slot version in
    writer_enter t;
    B.write_entry t.backend slot ~version value;
    let stamp = Version.next_completion ctx in
    B.set_finished t.backend slot stamp;
    writer_exit t;
    Completion.publish board stamp

  (* Two-phase append for batch installs: [append_entry] claims a slot
     and writes (version, value) but no stamp, so the entry stays
     invisible; [finish_entry] later stamps it. Splitting the phases
     lets a batch write every payload, run one persistence barrier,
     stamp every entry, and run one more barrier — two fences for the
     whole batch instead of two per key. Completion publishing is the
     caller's job (after the final barrier, so visible implies
     durable). *)
  let append_entry t ~version value =
    if version < 1 then invalid_arg "Lazy_tail.append_entry: version must be >= 1";
    let slot = claim t in
    let version = ordered_version t slot version in
    writer_enter t;
    B.write_entry t.backend slot ~version value;
    writer_exit t;
    slot

  let finish_entry t ~ctx ~slot =
    writer_enter t;
    let stamp = Version.next_completion ctx in
    B.set_finished t.backend slot stamp;
    writer_exit t;
    stamp

  (* Lookups read single words through the backend, never a record
     snapshot, and allocate nothing. This is safe because a backend's
     buffer pointer only moves forward: growth copies every written
     word with writers drained before it publishes the new buffer, and
     the old buffer is quarantined (PMEM) or left to the GC (RAM), never
     reused. A word read through the buffer pointer current at the read
     therefore comes from a buffer that holds every entry finished
     before the read, and an entry's version and value are written
     before its stamp. So the walk reads the stamp first and the version
     only once the stamp shows the entry finished; a zero stamp read
     from a buffer that was just replaced merely ends the walk early.
     The walk is bounded by the capacity, not by [pending]: every slot
     at or past [pending] has a zero stamp (buffers start zeroed, growth
     copies the old buffer's zeroed tail along, and the offline rewrites
     zero everything past the kept prefix), and the capacity word sits
     next to the records the walk reads anyway. *)

  (* Algorithm 1, find: walk the tail forward while the next entry is
     finished, globally acknowledged (helping fc along), and its version
     is still below the requested one. *)
  let rec walk t ~ctx ~version ~limit cursor =
    if cursor >= limit then cursor
    else begin
      let stamp = B.read_finished t.backend cursor in
      if stamp = 0 then cursor
      else begin
        let fc = Version.fc ctx in
        if stamp <= fc then
          if B.read_version t.backend cursor <= version then
            walk t ~ctx ~version ~limit (cursor + 1)
          else cursor
        else if stamp = fc + 1 then begin
          ignore (Version.try_advance_fc ctx ~expected:fc);
          walk t ~ctx ~version ~limit cursor
        end
        else cursor
      end
    end

  let rec publish_tail t cursor =
    let seen = Atomic.get t.tail in
    if cursor > seen && not (Atomic.compare_and_set t.tail seen cursor) then
      publish_tail t cursor

  (* Walk, then publish the longer tail; returns the visible length. *)
  let extend_tail t ~ctx ~version =
    let limit = B.capacity t.backend in
    let cursor = walk t ~ctx ~version ~limit (Atomic.get t.tail) in
    publish_tail t cursor;
    cursor

  (* Rightmost slot in [lo, hi] with version <= requested, else [best]. *)
  let rec search t ~version lo hi best =
    if lo > hi then best
    else begin
      let mid = (lo + hi) lsr 1 in
      if B.read_version t.backend mid <= version then
        search t ~version (mid + 1) hi mid
      else search t ~version lo (mid - 1) best
    end

  let find_slot t ~ctx ~version =
    let visible = extend_tail t ~ctx ~version in
    (* A read at or above the newest visible version — the common case —
       is answered by the last slot without a search. *)
    if visible > 0 && B.read_version t.backend (visible - 1) <= version then
      visible - 1
    else search t ~version 0 (visible - 2) (-1)

  let version_at t slot = B.read_version t.backend slot
  let value_at t slot = B.read_value t.backend slot

  type lookup = Absent | Entry of int * B.value

  let find t ~ctx ~version =
    let slot = find_slot t ~ctx ~version in
    if slot < 0 then Absent else Entry (version_at t slot, value_at t slot)

  let events t ~ctx =
    let visible = extend_tail t ~ctx ~version:max_int in
    List.init visible (fun i -> (version_at t i, value_at t i))

  let reset_offline t ~length =
    Atomic.set t.pending length;
    Atomic.set t.tail length

  let visible_length t = Atomic.get t.tail
  let pending_length t = Atomic.get t.pending
end
