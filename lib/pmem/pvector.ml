(* Header: { buf : i64; record_words : i64 }
   Buffer: { capacity_records : i64; records... }
   The buffer pointer is the only mutable header word; swapping it
   publishes the new capacity and contents together.

   [buf] caches the header's buffer pointer, so a record read is one
   pmem access instead of two dependent ones. The header stays the
   persistent truth: every swap goes through this handle (grow,
   shrink_offline), which persists the header and then updates the
   cache. *)

type t = {
  heap : Pheap.t;
  media : Media.t;
  header_off : int;
  record_words : int;
  mutable buf : int;
}

let header_size = 16
let buffer_bytes ~record_words ~capacity = 8 + (record_words * 8 * capacity)

(* A fresh buffer whose first [copy_bytes] record bytes are copied from
   the records of buffer [copy_from]; only the rest is zeroed (a
   recycled block may hold old bytes). *)
let alloc_buffer ?(copy_from = 0) ?(copy_bytes = 0) t ~capacity =
  let size = buffer_bytes ~record_words:t.record_words ~capacity in
  let off = Alloc.alloc (Pheap.allocator t.heap) size in
  if copy_bytes > 0 then
    Media.blit t.media ~src:(copy_from + 8) ~dst:(off + 8) copy_bytes;
  Media.fill t.media (off + 8 + copy_bytes) (size - 8 - copy_bytes) '\000';
  Media.set_i64 t.media off capacity;
  off

let create heap ~record_words ~initial_capacity =
  if record_words <= 0 then invalid_arg "Pvector.create: record_words";
  if initial_capacity <= 0 then invalid_arg "Pvector.create: initial_capacity";
  let media = Pheap.media heap in
  let header_off = Alloc.alloc (Pheap.allocator heap) header_size in
  let t = { heap; media; header_off; record_words; buf = 0 } in
  let buf = alloc_buffer t ~capacity:initial_capacity in
  Media.persist media buf (buffer_bytes ~record_words ~capacity:initial_capacity);
  Media.set_i64 media header_off buf;
  Media.set_i64 media (header_off + 8) record_words;
  Media.persist media header_off header_size;
  t.buf <- buf;
  t

let attach heap header_off =
  if Pptr.is_null header_off then invalid_arg "Pvector.attach: null handle";
  let media = Pheap.media heap in
  let record_words = Media.get_i64 media (header_off + 8) in
  if record_words <= 0 then invalid_arg "Pvector.attach: corrupt header";
  { heap; media; header_off; record_words; buf = Media.get_i64 media header_off }

let handle t = t.header_off
let record_words t = t.record_words
let buf_off t = t.buf
let capacity t = Media.get_i64 t.media (buf_off t)

let grow t wanted =
  let old_buf = buf_off t in
  let old_capacity = Media.get_i64 t.media old_buf in
  if wanted > old_capacity then begin
    let new_capacity =
      let rec double c = if c >= wanted then c else double (c * 2) in
      double (max 1 old_capacity)
    in
    let new_buf =
      alloc_buffer t ~capacity:new_capacity ~copy_from:old_buf
        ~copy_bytes:(t.record_words * 8 * old_capacity)
    in
    Media.persist t.media new_buf
      (buffer_bytes ~record_words:t.record_words ~capacity:new_capacity);
    Media.set_i64 t.media t.header_off new_buf;
    Media.persist t.media t.header_off 8;
    t.buf <- new_buf;
    (* The old buffer is quarantined, not freed, so concurrent readers
       that already loaded it stay valid; the heap's quiesced GC drains
       the quarantine once no reader can hold the pointer. *)
    Pheap.quarantine_block t.heap ~off:old_buf
      ~size:(buffer_bytes ~record_words:t.record_words ~capacity:old_capacity)
  end

let shrink_offline t ~capacity ~keep =
  if capacity <= 0 then invalid_arg "Pvector.shrink_offline: capacity";
  if keep < 0 || keep > capacity then invalid_arg "Pvector.shrink_offline: keep";
  let old_buf = buf_off t in
  let old_capacity = Media.get_i64 t.media old_buf in
  if capacity < old_capacity then begin
    let new_buf =
      alloc_buffer t ~capacity ~copy_from:old_buf
        ~copy_bytes:(t.record_words * 8 * min keep old_capacity)
    in
    Media.persist t.media new_buf (buffer_bytes ~record_words:t.record_words ~capacity);
    (* Same publication point as growth: the header swap. A crash in
       between orphans the new buffer; after it, the old one — either
       way a bounded leak, never a torn vector. *)
    Media.set_i64 t.media t.header_off new_buf;
    Media.persist t.media t.header_off 8;
    t.buf <- new_buf;
    Alloc.free (Pheap.allocator t.heap) old_buf
      (buffer_bytes ~record_words:t.record_words ~capacity:old_capacity)
  end

let record_off t record =
  buf_off t + 8 + (t.record_words * 8 * record)

let get_word t ~record ~word =
  Media.get_i64 t.media (record_off t record + (8 * word))

let set_word t ~record ~word v =
  Media.set_i64 t.media (record_off t record + (8 * word)) v

let get_record3 t ~record =
  (* One buf_off read -> all three words come from the same buffer. *)
  let base = buf_off t + 8 + (t.record_words * 8 * record) in
  ( Media.get_i64 t.media base,
    Media.get_i64 t.media (base + 8),
    Media.get_i64 t.media (base + 16) )

let persist_record t ~record =
  Media.persist t.media (record_off t record) (t.record_words * 8)

let free heap t =
  let buf = buf_off t in
  let cap = Media.get_i64 t.media buf in
  Alloc.free (Pheap.allocator heap) buf
    (buffer_bytes ~record_words:t.record_words ~capacity:cap);
  Alloc.free (Pheap.allocator heap) t.header_off header_size
