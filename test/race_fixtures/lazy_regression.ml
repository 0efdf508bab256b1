(* Regression model of the lazy tier Thermal.Reduced once kept: a
   shared record field forced inside a pool closure.  Two workers
   first-forcing [rom.tables] concurrently raise Lazy.RacyLazy.  The
   real reduction now receives its response engine when it is built,
   so no lazy is left to force; this model keeps the detector honest,
   and fosc-race must flag the unannotated force.
   *)

module Pool = struct
  let map f xs = List.map f xs
end

type rom = { tables : float array Lazy.t }

let make () = { tables = lazy (Array.make 4 0.) }

let scores rom xs = Pool.map (fun i -> (Lazy.force rom.tables).(i)) xs
