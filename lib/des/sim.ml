(* The event heap carries int slot indices into a handler slab; freed
   slots go on a free-list stack, so steady-state scheduling allocates
   only the caller's handler closure.  The clock lives in a one-cell
   floatarray: a mutable float field in this mixed record would box on
   every event. *)
type t = {
  clock : floatarray;
  events : Heap.t;
  mutable handlers : handler array;
  mutable used : int;
  mutable free : int array;
  mutable free_len : int;
}

and handler = t -> unit

let nop (_ : t) = ()

let create () =
  {
    clock = Float.Array.make 1 0.0;
    events = Heap.create ();
    handlers = [||];
    used = 0;
    free = [||];
    free_len = 0;
  }

let now t = Float.Array.get t.clock 0

let alloc_slot t handler =
  if t.free_len > 0 then begin
    t.free_len <- t.free_len - 1;
    let s = t.free.(t.free_len) in
    t.handlers.(s) <- handler;
    s
  end
  else begin
    if t.used = Array.length t.handlers then begin
      let cap = Int.max 16 (2 * Array.length t.handlers) in
      let handlers = Array.make cap nop in
      Array.blit t.handlers 0 handlers 0 t.used;
      t.handlers <- handlers
    end;
    let s = t.used in
    t.handlers.(s) <- handler;
    t.used <- t.used + 1;
    s
  end

let release_slot t s =
  (* Drop the closure so the GC can reclaim what it captured. *)
  t.handlers.(s) <- nop;
  if t.free_len = Array.length t.free then begin
    let cap = Int.max 16 (2 * Array.length t.free) in
    let free = Array.make cap 0 in
    Array.blit t.free 0 free 0 t.free_len;
    t.free <- free
  end;
  t.free.(t.free_len) <- s;
  t.free_len <- t.free_len + 1

let schedule_at t ~time handler =
  if time < now t then invalid_arg "Sim.schedule_at: time in the past";
  Heap.push t.events time (alloc_slot t handler)

let schedule t ~delay handler =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  Heap.push t.events (now t +. delay) (alloc_slot t handler)

let step t =
  if Heap.is_empty t.events then false
  else begin
    let time = Heap.min_key t.events in
    let slot = Heap.pop_payload t.events in
    let handler = t.handlers.(slot) in
    release_slot t slot;
    Float.Array.set t.clock 0 time;
    handler t;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      let continue_ = ref true in
      while !continue_ do
        if (not (Heap.is_empty t.events)) && Heap.min_key t.events <= horizon
        then ignore (step t : bool)
        else begin
          Float.Array.set t.clock 0 (Float.max (now t) horizon);
          continue_ := false
        end
      done
