(* Layer attribution from outside the program.

   The benchmark never edits the code it measures. It sees the layers
   in three ways:
   - spans it opens itself around calls into public functions: the
     client op ([pb.op.*]), the store module it hands to
     [Net.Server.Make] ([pb.store.*]) and the [on_mutation] hook it
     hands to [Server.start] ([pb.repl.forward]);
   - spans the program already opens when a request carries a sampled
     trace context ([srv.<op>] on the server, [cluster.<op>] in the
     router), read back from their [span.<name>] histograms;
   - counters the program already keeps ([Pheap.stats], [Obs.Registry],
     [Gc.quick_stat]).

   With [Obs.Control] disabled every span here is two calls that
   return at once: no clock read, no allocation. *)

module Store =
  Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

(* Self-test hook: the number of store answers still to falsify. A
   falsified answer is what a store bug would return; the benchmark's
   checks must count it as a failure. *)
let falsify = Atomic.make 0

let take_falsify () =
  Atomic.get falsify > 0 && Atomic.fetch_and_add falsify (-1) > 0

let find_span = "pb.store.find"
let find_at_span = "pb.store.find_at"
let insert_span = "pb.store.insert"
let batch_span = "pb.store.insert_batch"
let range_span = "pb.store.iter_range"
let compact_span = "pb.store.compact"
let forward_span = "pb.repl.forward"

(* The primary's store, as handed to [Net.Server.Make]. *)
module Timed_store = struct
  include Store

  let find t ?version k =
    let name = match version with None -> find_span | Some _ -> find_at_span in
    let t0 = Obs.Span.enter name in
    let r = Store.find t ?version k in
    Obs.Span.exit name t0;
    if take_falsify () then Some (match r with Some v -> v + 1 | None -> 0)
    else r

  let insert t k v =
    let t0 = Obs.Span.enter insert_span in
    Store.insert t k v;
    Obs.Span.exit insert_span t0

  let insert_batch t pairs =
    let t0 = Obs.Span.enter batch_span in
    Store.insert_batch t pairs;
    Obs.Span.exit batch_span t0

  (* The server stops a page walk by raising from [f]. *)
  let iter_range t ?version ~lo ~hi f =
    let f =
      if take_falsify () then begin
        let first = ref true in
        fun k v ->
          if !first then (first := false; f k (v + 1)) else f k v
      end
      else f
    in
    let t0 = Obs.Span.enter range_span in
    match Store.iter_range t ?version ~lo ~hi f with
    | () -> Obs.Span.exit range_span t0
    | exception e ->
        Obs.Span.exit range_span t0;
        raise e

  let compact t ~before =
    let t0 = Obs.Span.enter compact_span in
    let dropped = Store.compact t ~before in
    Obs.Span.exit compact_span t0;
    dropped
end

(* Wrap the replication hook; only single inserts are spanned, so the
   forward cost lines up one to one with the client's write ops. *)
let timed_hook hook (req : Net.Wire.request) resp =
  match req with
  | Net.Wire.Insert _ ->
      let t0 = Obs.Span.enter forward_span in
      hook req resp;
      Obs.Span.exit forward_span t0
  | _ -> hook req resp

(* One sampled root span per client op, in a fresh trace: the client
   stamps the trace onto the wire, so the server's [srv.*] span and the
   store spans under it become children of this op. *)
let root name f =
  Obs.Span.with_context
    (Some
       {
         Obs.Span.trace = Obs.Traceid.generate ();
         parent = 0;
         sampled = true;
       })
    (fun () -> Obs.Span.with_ name f)

(* ---- reading the histograms back ---- *)

let hist name = Obs.Registry.histogram name
let span_hist name = hist ("span." ^ name)

let sum_count names =
  List.fold_left
    (fun (s, c) h -> (s + Obs.Histogram.sum h, c + Obs.Histogram.count h))
    (0, 0) names

(* Mean over several histograms, weighted by their counts; 0 when
   none recorded anything (the layer is not on this workload's path). *)
let mean hs =
  let s, c = sum_count hs in
  if c = 0 then 0. else float_of_int s /. float_of_int c

let span_mean names = mean (List.map span_hist names)
let span_count names = snd (sum_count (List.map span_hist names))
let counter name = Obs.Metric.value (Obs.Registry.counter name)
