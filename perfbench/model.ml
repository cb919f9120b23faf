(* Reference model of the store under test: what every answer must be.

   Keys are indices [0, n) into the workload's sorted key array. The
   preload gives every key one value per preload version (1 ..
   [preload_versions]) computed by [preload_value], so the model stores
   nothing for it. Later writes go to an append log: per write its
   pending version, value and the previous log entry of the same key,
   with [head] pointing at each key's newest entry. Answering "value of
   key [i] at version [v]" walks the key's entries newest first until
   one is at or below [v]; a walk is as long as the number of writes to
   that key after [v], which the workloads keep short. *)

type t = {
  n : int;
  preload_versions : int;
  head : int array;  (** newest log entry per key; -1 = preload only *)
  mutable ver : int array;
  mutable value : int array;
  mutable prev : int array;
  mutable len : int;
}

let preload_value i p = (i * 8) + p

let create ~n ~preload_versions =
  let cap = 1 lsl 16 in
  {
    n;
    preload_versions;
    head = Array.make n (-1);
    ver = Array.make cap 0;
    value = Array.make cap 0;
    prev = Array.make cap 0;
    len = 0;
  }

let grow a len = Array.append a (Array.make len 0)

(* Record that key [i] was written with [value] under pending version
   [ver] (the last tag plus one). *)
let write t i ~ver ~value =
  if t.len = Array.length t.ver then begin
    t.ver <- grow t.ver t.len;
    t.value <- grow t.value t.len;
    t.prev <- grow t.prev t.len
  end;
  let j = t.len in
  t.ver.(j) <- ver;
  t.value.(j) <- value;
  t.prev.(j) <- t.head.(i);
  t.head.(i) <- j;
  t.len <- j + 1

(* Value of key [i] in snapshot [v]; [max_int] reads the newest state,
   untagged writes included. *)
let value_at t i v =
  let rec walk j =
    if j < 0 then
      if v >= 1 then Some (preload_value i (min v t.preload_versions)) else None
    else if t.ver.(j) <= v then Some t.value.(j)
    else walk t.prev.(j)
  in
  walk t.head.(i)
