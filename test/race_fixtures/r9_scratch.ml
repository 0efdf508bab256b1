(* R9 fixture: owner-held scratch from a [Scratch.get] accessor (the
   shape of Util.Scratch) escaping its domain unannotated — stored into a
   shared structure, and returned from a pool-reachable helper. *)

module Pool = struct
  let map f xs = List.map f xs
end

module Scratch = struct
  type 'a t = { create : unit -> 'a }

  let make create = { create }
  let get t = t.create ()
end

let scratch = Scratch.make (fun () -> Array.make 8 0.)

let sink : float array Queue.t = Queue.create ()
[@@fosc.unguarded "fixture: only the R9 escape is under test here"]

let leak xs =
  Pool.map
    (fun x ->
      let s = Scratch.get scratch in
      s.(0) <- float_of_int x;
      Queue.push s sink;
      s.(0))
    xs

let grab () = Scratch.get scratch

let use xs = Pool.map (fun x -> (grab ()).(0) +. float_of_int x) xs
