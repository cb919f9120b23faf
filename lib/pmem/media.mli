(** Byte-addressable persistent-memory device emulation.

    This is the bottom of the substrate that replaces Intel PMDK's mapped
    persistent memory. A media is a flat byte range addressed by offsets,
    backed either by RAM (volatile, optionally with crash simulation) or
    by a memory-mapped file (survives process restart, like the paper's
    [/dev/shm] PMDK pool).

    Durability model: a store becomes durable only once the cache lines
    covering it have been {!flush}ed and a {!fence} issued — exactly the
    [clwb + sfence] discipline of real persistent memory. In
    [crash_sim:true] mode the media keeps a shadow "durable image":
    {!simulate_crash} discards every write that was not flushed, which is
    how the test suite proves crash consistency of the layouts above.

    Concurrency: distinct byte ranges may be written by different domains
    concurrently. Same-word racing accesses must be coordinated by the
    caller (the structures above use ephemeral atomics for that, as the
    paper does). Flushes copy whole cache lines into the crash-sim
    shadow, so with [crash_sim] those copies are serialised per media;
    two domains may persist neighbouring words of one line. Media
    without [crash_sim] take no lock. *)

type t

val cache_line : int
(** Durability granularity in bytes (64, as on Optane). *)

val create_ram : ?crash_sim:bool -> capacity:int -> unit -> t
(** Volatile backing of [capacity] bytes, zero-initialised. With
    [crash_sim] a durable shadow image is maintained by {!flush}. *)

val create_file : path:string -> capacity:int -> t
(** Create (truncating) a file-backed media of [capacity] bytes. *)

val open_file : path:string -> t
(** Map an existing file-backed media; capacity is the file size. *)

val close : t -> unit
(** Unmap/flush a file-backed media. RAM media: no-op. *)

val capacity : t -> int
val stats : t -> Pstats.t
val is_file_backed : t -> bool

(** {1 Typed accessors} — offsets are byte offsets; int64 accessors require
    8-byte alignment (checked by assertion). *)

val get_i64 : t -> int -> int
val set_i64 : t -> int -> int -> unit
(** Values are OCaml ints stored as little-endian 64-bit words (the top
    bit is never used by the layouts above). *)

val get_byte : t -> int -> int
val set_byte : t -> int -> int -> unit

val read_bytes : t -> int -> int -> Bytes.t
val write_bytes : t -> int -> Bytes.t -> unit
val fill : t -> int -> int -> char -> unit

val blit : t -> src:int -> dst:int -> int -> unit
(** [blit t ~src ~dst len] copies [len] bytes from offset [src] to
    offset [dst] inside the media, with no intermediate buffer
    (overlapping ranges allowed). Like every write, the copy is not
    durable until flushed and fenced. *)

(** {1 Durability} *)

val flush : t -> int -> int -> unit
(** [flush t off len] makes the cache lines covering [off, off+len)
    durable (updates the shadow image in crash-sim mode; counts lines). *)

val fence : t -> unit
(** Store fence; orders flushes. Counted. *)

val persist : t -> int -> int -> unit
(** [flush] followed by [fence]. *)

(** {1 Batch scopes}

    A batch scope coalesces the persistence epilogues of a multi-record
    install: inside {!with_batch} the calling domain's flushes are
    deferred and deduplicated per cache line and its fences are merely
    counted; each {!batch_barrier} (and scope exit) then issues one
    flush pass over the distinct dirty lines and one fence per touched
    media, crediting the eliminated work to {!Pstats} as
    [flushes_saved]/[fences_saved]. The crash-sim shadow is only
    updated at the barrier, so a simulated crash mid-batch loses the
    whole unfenced suffix — callers must not expose batch effects
    before the closing barrier. Scopes are per-domain; other domains
    flush and fence eagerly as usual. *)

val with_batch : (unit -> 'a) -> 'a
(** Run [f] with deferred persistence on this domain, draining the
    scope (barrier) on exit — including exceptional exit. Nested calls
    are transparent: the outermost scope's barriers cover them. *)

val batch_barrier : unit -> unit
(** Drain the current domain's batch scope now: flush distinct dirty
    lines, issue one fence per touched media, credit savings. Needed
    mid-batch when a later write phase must be ordered after an earlier
    one (e.g. stamping entries only after their payloads are durable).
    No-op outside {!with_batch}. *)

val simulate_crash : t -> unit
(** Crash-sim RAM media only: revert every non-durable write, as a power
    failure would. Raises [Invalid_argument] otherwise. *)
