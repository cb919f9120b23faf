(* Undo log layout (one block allocated from the heap, offset kept in a
   root slot):
     +0   state: 0 = idle, 1 = active
     +8   entry count
     +16  log capacity in bytes (for reopen)
     +24  entries
   Entry: { off : i64; len : i64; old bytes (8-aligned) }.

   Crash protocol: an entry is persisted (data first, then the count bump)
   before its home range may be mutated, so an interrupted transaction can
   always be rolled back by replaying entries in reverse. *)

type t = {
  heap : Pheap.t;
  log_off : int;
  log_capacity : int;
  lock : Mutex.t;
  active : bool Atomic.t;
}

type tx = { mgr : t; mutable write_cursor : int }

let state_off t = t.log_off
let count_off t = t.log_off + 8
let entries_off t = t.log_off + 24

let media t = Pheap.media t.heap

let rollback t =
  let m = media t in
  let count = Media.get_i64 m (count_off t) in
  (* Walk entries forward to locate them, then undo in reverse order. *)
  let entries = ref [] in
  let cursor = ref (entries_off t) in
  for _ = 1 to count do
    let off = Media.get_i64 m !cursor in
    let len = Media.get_i64 m (!cursor + 8) in
    entries := (off, len, !cursor + 16) :: !entries;
    cursor := !cursor + 16 + Pptr.align8 len
  done;
  List.iter
    (fun (off, len, data_off) ->
      Media.blit m ~src:data_off ~dst:off len;
      Media.persist m off len)
    !entries;
  Media.set_i64 m (count_off t) 0;
  Media.persist m (count_off t) 8;
  Media.set_i64 m (state_off t) 0;
  Media.persist m (state_off t) 8

let attach heap ~root_slot ~log_capacity =
  if log_capacity < 64 then invalid_arg "Tx.attach: log too small";
  let existing = Pheap.root_get heap root_slot in
  let t =
    if Pptr.is_null existing then begin
      let log_off = Alloc.alloc_zeroed (Pheap.allocator heap) log_capacity in
      let m = Pheap.media heap in
      Media.set_i64 m (log_off + 16) log_capacity;
      Media.persist m log_off 24;
      Pheap.root_set heap root_slot log_off;
      { heap; log_off; log_capacity; lock = Mutex.create (); active = Atomic.make false }
    end
    else begin
      let m = Pheap.media heap in
      let log_capacity = Media.get_i64 m (existing + 16) in
      { heap; log_off = existing; log_capacity;
        lock = Mutex.create (); active = Atomic.make false }
    end
  in
  (* Roll back a transaction the previous process died inside of. *)
  if Media.get_i64 (media t) (state_off t) = 1 then rollback t;
  t

let add_range tx off len =
  if len <= 0 then invalid_arg "Tx.add_range: non-positive length";
  let t = tx.mgr in
  let m = media t in
  let entry_size = 16 + Pptr.align8 len in
  if tx.write_cursor + entry_size > t.log_off + t.log_capacity then
    failwith "Tx.add_range: undo log full";
  let cursor = tx.write_cursor in
  Media.set_i64 m cursor off;
  Media.set_i64 m (cursor + 8) len;
  Media.blit m ~src:off ~dst:(cursor + 16) len;
  Media.persist m cursor entry_size;
  (* Publishing the count makes the entry recoverable. *)
  let count = Media.get_i64 m (count_off t) in
  Media.set_i64 m (count_off t) (count + 1);
  Media.persist m (count_off t) 8;
  tx.write_cursor <- cursor + entry_size

let set_i64 tx off v =
  add_range tx off 8;
  Media.set_i64 (media tx.mgr) off v

let write_bytes tx off data =
  add_range tx off (Bytes.length data);
  Media.write_bytes (media tx.mgr) off data

let commit tx =
  let t = tx.mgr in
  let m = media t in
  (* Persist every mutated range (they are exactly the snapshot ranges). *)
  let count = Media.get_i64 m (count_off t) in
  let cursor = ref (entries_off t) in
  for _ = 1 to count do
    let off = Media.get_i64 m !cursor in
    let len = Media.get_i64 m (!cursor + 8) in
    Media.persist m off len;
    cursor := !cursor + 16 + Pptr.align8 len
  done;
  Media.set_i64 m (count_off t) 0;
  Media.persist m (count_off t) 8;
  Media.set_i64 m (state_off t) 0;
  Media.persist m (state_off t) 8

let run t f =
  Mutex.lock t.lock;
  Atomic.set t.active true;
  let m = media t in
  Media.set_i64 m (count_off t) 0;
  Media.set_i64 m (state_off t) 1;
  Media.persist m (state_off t) 16;
  let tx = { mgr = t; write_cursor = entries_off t } in
  let finish () =
    Atomic.set t.active false;
    Mutex.unlock t.lock
  in
  match f tx with
  | () ->
      commit tx;
      finish ()
  | exception e ->
      rollback t;
      finish ();
      raise e

let in_flight t = Atomic.get t.active
