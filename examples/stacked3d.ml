(* Thermal-aware scheduling on a 3D-stacked multi-core.

     dune exec examples/stacked3d.exe

   The paper's introduction motivates the work with 3D integration:
   stacked dies have longer heat-removal paths and higher power density.
   This example builds a 2-layer 2x2 stack (8 cores), shows the thermal
   asymmetry between layers, and runs the same AO policy on it — the
   library is layout-agnostic because everything flows through the
   compact model. *)

let () =
  let layers = 2 and rows = 2 and cols = 2 in
  let fp = Thermal.Floorplan.stack3d ~layers ~rows ~cols ~core_width:4e-3 ~core_height:4e-3 in
  let model = Thermal.Hotspot.core_level fp in
  let n = Thermal.Model.n_cores model in
  Printf.printf "3D platform: %d layers x %dx%d = %d cores\n" layers rows cols n;

  (* Thermal asymmetry: equal power on every core, very unequal temps. *)
  let pm = Power.Power_model.default in
  let uniform_psi = Array.make n (Power.Power_model.psi pm 1.0) in
  let temps = Thermal.Model.steady_core_temps model uniform_psi in
  Printf.printf "\nsteady temperatures at a uniform 1.0 V load:\n";
  Array.iteri
    (fun i t ->
      Printf.printf "  %-10s %.2f C%s\n"
        fp.Thermal.Floorplan.blocks.(i).Thermal.Floorplan.name t
        (if i >= rows * cols then "   (stacked: hotter)" else ""))
    temps;

  (* The ideal solve automatically derates the stacked layer. *)
  let platform = Core.Platform.make ~levels:(Power.Vf.table_iv 5) ~t_max:65. model in
  let ideal = Core.Ideal.solve platform in
  Printf.printf "\nideal voltages at T_max = 65 C:\n";
  Array.iteri
    (fun i v ->
      Printf.printf "  %-10s %.4f V\n"
        fp.Thermal.Floorplan.blocks.(i).Thermal.Floorplan.name v)
    ideal.Core.Ideal.voltages;

  let eval = Core.Eval.create platform in
  let lns = Core.Lns.solve eval in
  let ao = Core.Ao.solve eval in
  Printf.printf "\nLNS throughput: %.4f\n" lns.Core.Lns.throughput;
  Printf.printf "AO  throughput: %.4f (m = %d, peak %.2f C)\n" ao.Core.Ao.throughput
    ao.Core.Ao.m ao.Core.Ao.peak;
  Printf.printf "AO gain over LNS on the 3D stack: %+.1f%%\n"
    ((ao.Core.Ao.throughput -. lns.Core.Lns.throughput)
    /. lns.Core.Lns.throughput *. 100.)
