(** Per-key version history with a lazy tail (Algorithm 1 of the paper),
    generic over the storage backend (persistent memory or RAM).

    A history is an append-only array of [(version, value, finished)]
    entries. Appends claim slots with an atomic fetch-add on an ephemeral
    [pending] counter and then write their entry {e in parallel} — no
    transaction, no lock. An entry becomes visible once

    - its [finished] stamp (taken from the global completion sequence at
      the end of the append) is covered by the global finished counter
      [fc], i.e. all globally earlier appends also completed; and
    - a query actually needs to walk past it — the ephemeral [tail]
      cursor is advanced lazily {e by queries}, never by appends, and
      only as far as the requested version requires.

    Version monotonicity: the paper leaves the order of two concurrent
    appends to the {e same} key unspecified; we strengthen it so the
    entries of one history are always non-decreasing in version (an
    appender waits for its predecessor slot's version word and takes the
    max), which keeps the binary search of queries correct under every
    interleaving.

    Growth: a slot is claimed only once the capacity covers it; an
    appender that finds the buffer full becomes the designated grower,
    briefly excludes in-flight writers (a write-preferring flag +
    count), copies to a doubled buffer, and publishes it. A growth that
    raises leaves nothing claimed or flagged, so the history stays
    usable. Readers are never blocked: entries are write-once, the
    buffer pointer only moves forward, and lookups read single words
    (stamp before version) without allocating. *)

module type BACKEND = sig
  type t
  type value

  val capacity : t -> int

  val ensure : t -> int -> unit
  (** Grow to at least the given capacity. Called only by the designated
      grower with no writer in flight; may raise (heap exhaustion), in
      which case the capacity is unchanged. *)

  val write_entry : t -> int -> version:int -> value -> unit
  (** Publish version then value of a claimed slot, then persist them
      (persistence is a no-op for RAM backends). *)

  val set_finished : t -> int -> int -> unit
  (** Persist the completion stamp of a slot (written last). *)

  val read_version : t -> int -> int
  (** Version word of a slot; 0 if not yet written. *)

  val read_value : t -> int -> value
  (** Value of a slot; meaningful once its stamp is non-zero. *)

  val read_finished : t -> int -> int
  (** Completion stamp of a slot; 0 if not yet finished. Each [read_*]
      reads one word through the backend's current buffer. *)
end

module Make (B : BACKEND) : sig
  type t

  val wrap : B.t -> length:int -> t
  (** Attach ephemeral state to a backend; [length] is the number of
      already-visible entries (0 for a fresh history, the recovered
      prefix length after a restart). *)

  val backend : t -> B.t

  val append : t -> ctx:Version.t -> board:Completion.t -> version:int -> B.value -> unit
  (** The full Algorithm-1 insert: claim, order, write, persist, stamp,
      publish completion. A removal is an append of the backend's
      marker value. *)

  val append_entry : t -> version:int -> B.value -> int
  (** First half of a two-phase (batch) append: claim a slot, order the
      version, write the entry payload — but do not stamp it, so it
      stays invisible. Returns the slot for {!finish_entry}. Used with
      {!Media.with_batch} so the payload persists at a shared barrier
      rather than per key. *)

  val finish_entry : t -> ctx:Version.t -> slot:int -> int
  (** Second half: take the next completion stamp and persist it into
      the slot. Returns the stamp; the caller must
      [Completion.publish] it only after the stamps' persistence
      barrier, so an entry can never be visible before it is durable. *)

  val find_slot : t -> ctx:Version.t -> version:int -> int
  (** Algorithm-1 find: lazily extend the tail no further than the
      requested version requires, then binary-search the visible prefix.
      Returns the slot of the latest visible entry with a version at or
      below the requested one, or [-1]. Allocates nothing. *)

  val value_at : t -> int -> B.value
  (** Value of a slot returned by {!find_slot} (may be the removal
      marker). *)

  type lookup =
    | Absent  (** No visible entry at or below the requested version. *)
    | Entry of int * B.value
        (** Version and value of the latest visible entry; the value may
            be the removal marker. *)

  val find : t -> ctx:Version.t -> version:int -> lookup
  (** {!find_slot} with the entry read out; allocates only its result. *)

  val events : t -> ctx:Version.t -> (int * B.value) list
  (** The visible history, oldest first (extract_history). *)

  val reset_offline : t -> length:int -> unit
  (** Reset the ephemeral cursors after an offline rewrite of the
      backend (compaction). Must not race with any other operation. *)

  val visible_length : t -> int
  (** Current tail position (entries known visible; diagnostics). *)

  val pending_length : t -> int
  (** Slots claimed so far (>= visible_length). *)
end
