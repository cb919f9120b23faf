module Make (V : sig
  type t
end) =
struct
  type buffer = {
    versions : int array;
    values : V.t option array;
    finished : int array;
  }

  module Backend = struct
    type t = buffer Atomic.t
    type value = V.t option

    let capacity t = Array.length (Atomic.get t).versions

    let make_buffer n =
      { versions = Array.make n 0; values = Array.make n None;
        finished = Array.make n 0 }

    (* Called with writers excluded (Lazy_tail's growth protocol), so the
       copy cannot miss an in-flight entry. *)
    let ensure t wanted =
      let old = Atomic.get t in
      let cap = Array.length old.versions in
      if wanted > cap then begin
        let rec double c = if c >= wanted then c else double (c * 2) in
        let fresh = make_buffer (double (max 1 cap)) in
        Array.blit old.versions 0 fresh.versions 0 cap;
        Array.blit old.values 0 fresh.values 0 cap;
        Array.blit old.finished 0 fresh.finished 0 cap;
        Atomic.set t fresh
      end

    let write_entry t slot ~version value =
      let buf = Atomic.get t in
      buf.versions.(slot) <- version;
      buf.values.(slot) <- value

    let set_finished t slot stamp =
      let buf = Atomic.get t in
      buf.finished.(slot) <- stamp

    let read_version t slot = (Atomic.get t).versions.(slot)
    let read_value t slot = (Atomic.get t).values.(slot)
    let read_finished t slot = (Atomic.get t).finished.(slot)
  end

  module H = Lazy_tail.Make (Backend)

  type t = H.t

  let initial_capacity = 2

  let create () =
    H.wrap (Atomic.make (Backend.make_buffer initial_capacity)) ~length:0
end
