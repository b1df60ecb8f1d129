(* The three benchmark workloads, as parameters of the one loop in
   [Episode].  Every workload is open loop in simulated time: update
   bursts arrive as a Poisson process at a fixed offered rate, whatever
   the plane's progress.  Why each exists is recorded in BENCHMARK.json;
   perfbench/README.md gives the layer predictions. *)

type faults = {
  f_prob : float;          (* per-frame fault probability inside the window *)
  f_window_ms : float;     (* fault window at the start of each cycle *)
  f_elements : int;        (* up to this many link/node failures per cycle *)
  f_watchdog_ms : float;   (* switch watchdog (section 11) *)
  f_deadline_ms : float;   (* operator deadline: abort past it *)
}

type probes = {
  p_gap_ms : float;        (* per-flow mean probe gap (Poisson) *)
  p_window_ms : float;     (* injection window at the start of each cycle *)
}

type t = {
  name : string;
  topology : unit -> Topo.Topologies.t;
  flows : int;             (* concurrent flow population *)
  burst : int;             (* updates per arrival burst (distinct flows) *)
  arrival_mean_ms : float; (* Poisson mean between bursts *)
  churn : float;           (* per-burst probability that one flow churns *)
  check_every : int;       (* Thm. 1-4 structural check every n bursts *)
  cycles : int;
  cycle_ms : float option;
      (* [None]: one open cycle that ends when the plane drains.  [Some c]:
         cycles of [c] ms, each closed at a quiet instant by a traffic
         drain and a structural check, Soak-style. *)
  quiet_ms : float;        (* arrivals stop this long before a cycle closes *)
  updates_per_cycle : int;
  probes : probes option;
  faults : faults option;
}

(* AttMpls, 200 flows on k=3 alternative paths, bursts of 8 every 20 ms:
   about 400 updates/s simulated, below the simulated controller's
   saturation, so completion latency does not grow with run length. *)
let update_storm =
  {
    name = "update-storm";
    topology = Topo.Topologies.attmpls;
    flows = 200;
    burst = 8;
    arrival_mean_ms = 20.0;
    churn = 0.05;
    check_every = 25;
    cycles = 1;
    cycle_ms = None;
    quiet_ms = 0.0;
    updates_per_cycle = 3000;
    probes = None;
    faults = None;
  }

(* Chinanet, probes every 2.5 ms per flow racing a light update stream
   (tens of updates/s); the auditor drains at every cycle's quiet tail so
   its flight table stays bounded. *)
let probe_audit =
  {
    name = "probe-audit";
    topology = Topo.Topologies.chinanet;
    flows = 40;
    burst = 3;
    arrival_mean_ms = 40.0;
    churn = 0.05;
    check_every = 25;
    cycles = 1;
    cycle_ms = Some 1000.0;
    quiet_ms = 150.0;
    updates_per_cycle = 1000;
    probes = Some { p_gap_ms = 2.5; p_window_ms = 850.0 };
    faults = None;
  }

(* B4, soak-shaped cycles: churn, a 5% control-frame fault window,
   scheduled link/node failures and section 11 recovery with a deadline,
   probes at a lower rate and hundreds of updates per cycle. *)
let fault_recovery =
  {
    name = "fault-recovery";
    topology = Topo.Topologies.b4;
    flows = 40;
    burst = 4;
    arrival_mean_ms = 80.0;
    churn = 0.05;
    check_every = 25;
    cycles = 2;
    cycle_ms = Some 6000.0;
    quiet_ms = 1200.0;
    updates_per_cycle = 200;
    probes = Some { p_gap_ms = 10.0; p_window_ms = 4000.0 };
    faults =
      Some
        {
          f_prob = 0.05;
          f_window_ms = 2500.0;
          f_elements = 2;
          f_watchdog_ms = Harness.Run_config.default_watchdog_ms;
          f_deadline_ms = 3000.0;
        };
  }

let all = [ update_storm; probe_audit; fault_recovery ]
let find name = List.find_opt (fun w -> w.name = name) all
