(* Ring cells hold the stamp itself (not a flag): cell [s mod ring] = s
   means "stamp s completed". Stale values from earlier laps can never be
   mistaken for the stamp being awaited, so cells never need clearing. *)

type t = { ctx : Version.t; ring : int; cells : int Atomic.t array }

let create ?(ring = 1 lsl 16) ctx =
  if ring < 2 then invalid_arg "Completion.create: ring too small";
  { ctx; ring; cells = Array.init ring (fun _ -> Atomic.make 0) }

let rec advance t =
  let fc = Version.fc t.ctx in
  let next = fc + 1 in
  if Atomic.get t.cells.(next mod t.ring) = next then begin
    (* Success or interference both mean progress; keep going. *)
    ignore (Version.try_advance_fc t.ctx ~expected:fc);
    advance t
  end

let publish t s =
  (* Backpressure: never overwrite a cell whose previous-lap stamp has
     not been consumed by fc yet. *)
  while s - Version.fc t.ctx >= t.ring do
    advance t;
    Domain.cpu_relax ()
  done;
  Atomic.set t.cells.(s mod t.ring) s;
  advance t

let help_advance = advance
