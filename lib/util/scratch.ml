(* [slots] holds one copy per domain that has asked, so the copies die
   with their owner.  The one DLS slot caches, per domain, the serial and
   copy of the owner served last; copies of different owners differ in
   type, so the cache holds them as [univ], each owner projecting back
   through its own local extension constructor. *)

type univ = ..
type univ += Unset

type 'a t = {
  serial : int;
  create : unit -> 'a;
  inj : 'a -> univ;
  prj : univ -> 'a;
  lock : Mutex.t;
  mutable slots : (int * 'a) list; [@fosc.guarded "mutex"] (* by domain id *)
}

let serials = Atomic.make 0
let last = Domain.DLS.new_key (fun () -> (-1, Unset))

let make (type a) (create : unit -> a) : a t =
  let module M = struct
    type univ += Slot of a
  end in
  {
    serial = Atomic.fetch_and_add serials 1;
    create;
    inj = (fun s -> M.Slot s);
    prj = (function M.Slot s -> s | _ -> assert false (* serial matched *));
    lock = Mutex.create ();
    slots = [];
  }

let lookup t =
  let id = (Domain.self () :> int) in
  Mutex.lock t.lock;
  let s =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        match List.assoc_opt id t.slots with
        | Some s -> s
        | None ->
            let s = t.create () in
            t.slots <- (id, s) :: t.slots;
            s)
  in
  Domain.DLS.set last (t.serial, t.inj s);
  s

let get t =
  let serial, slot = Domain.DLS.get last in
  if serial = t.serial then t.prj slot else lookup t
