(** Host topologies: the paper's back-to-back pair, and multi-host
    fabrics built from {!Osiris_switch.Switch} via the
    {!Osiris_topo} generator.

    The original testbed is §4's "pair of workstations connected by a
    pair of OSIRIS boards linked back-to-back" — {!connect}/{!pair},
    unchanged. Every multi-host fabric is an {!Osiris_topo.Builder}
    wiring plan stood up by {!instantiate}: every host keeps its own
    transmit and receive striped links, but they terminate on switch
    ports instead of directly on the peer, and {!open_vc} allocates
    per-hop VCIs and programs the switches' routing tables end to end.
    {!star} and {!chain} are the degenerate plans (bit-for-bit the
    fabrics their hand-rolled predecessors built); {!leaf_spine} and
    {!fat_tree} scale the same machinery to multi-tier Clos fabrics with
    equal-cost multipath, which {!open_vc_paths} exposes as one VCI
    chain per path. *)

type t = {
  a : Host.t;
  b : Host.t;
  a_to_b : Osiris_link.Atm_link.t;
  b_to_a : Osiris_link.Atm_link.t;
}

val connect :
  Osiris_sim.Engine.t ->
  ?link:Osiris_link.Atm_link.config ->
  ?seed:int ->
  Host.t ->
  Host.t ->
  t
(** Create the two unidirectional striped links, attach the boards, and
    start both hosts. *)

val pair :
  ?machine_a:Machine.t ->
  ?machine_b:Machine.t ->
  ?config:Host.config ->
  ?link:Osiris_link.Atm_link.config ->
  unit ->
  Osiris_sim.Engine.t * t
(** Convenience: a fresh engine and two identical hosts (DECstation
    5000/200 by default) already connected and started. *)

(** {2 Multi-host topologies} *)

type endpoint = {
  host : Host.t;
  to_fabric : Osiris_link.Atm_link.t;  (** host tx → switch ingress *)
  from_fabric : Osiris_link.Atm_link.t;  (** switch egress → host rx *)
  sw : int;  (** index into {!topology.switches} *)
  port : int;  (** this host's port on that switch *)
}

type topology = {
  endpoints : endpoint array;
  switches : Osiris_switch.Switch.t array;
  trunk_ports : int option array;
      (** per-switch port of the switch's {e first} trunk, when one
          exists (kept for the chain-era fault plans; multi-tier fabrics
          have many trunk ports per switch — consult {!fabric}) *)
  trunks : Osiris_link.Atm_link.t array;
      (** the trunk links, two per {!Osiris_topo.Builder.trunk} in trunk
          order: [trunks.(2i)] carries trunk [i]'s [t_a → t_b] direction
          and [trunks.(2i+1)] the reverse ([\[| sw0->sw1; sw1->sw0 |\]]
          for {!chain}, empty for {!star}) — the targets of [trunkloss]
          fault bursts *)
  fabric : Osiris_topo.Builder.fabric;
      (** the wiring plan this topology was instantiated from — the
          queryable fabric map (tiers, trunk endpoints, path sets) *)
  mutable next_vci : int;  (** next VCI {!open_vc} will hand out *)
  path_cache : (int, Osiris_topo.Builder.hop list list) Hashtbl.t;
      (** memoized {!Osiris_topo.Builder.paths} results, keyed
          [(src lsl 16) lor dst]: the fabric never changes after
          {!instantiate}, so each ordered pair is enumerated at most
          once and opening the Nth VC of a pair is O(path length) —
          bulk connection setup at thousands of VCs *)
  mutable path_enums : int;
      (** number of path enumerations actually performed (cache
          misses); see {!path_enumerations} *)
}

type vc = {
  vc_src : int;  (** sending host index *)
  vc_dst : int;  (** receiving host index *)
  src_vci : int;  (** VCI the sender transmits on ([Driver.send ~vci]) *)
  dst_vci : int;
      (** VCI the cells carry on the receiver's link after per-hop
          rewriting — already bound to the receiver's kernel channel *)
}

type mvc = {
  mv_src : int;
  mv_dst : int;
  src_vcis : int array;  (** per-path sender VCIs: sending on
      [src_vcis.(p)] routes the PDU along path [p] *)
  dst_vcis : int array;
      (** per-path receiver VCIs, each bound to the kernel channel —
          which VCI fired tells the receiver which path a PDU took *)
  mv_paths : Osiris_topo.Builder.hop list array;
      (** the equal-cost hop lists, aligned with the VCI arrays *)
}
(** A multipath virtual circuit: one complete per-hop VCI chain per
    equal-cost path, so a sender-side load balancer picks a path per PDU
    by picking a VCI — cells of one PDU never interleave with another
    path's cells on the same VCI, keeping striped reassembly sound. *)

val instantiate :
  ?machine:Machine.t ->
  ?config:Host.config ->
  ?link:Osiris_link.Atm_link.config ->
  ?trunk_link:Osiris_link.Atm_link.config ->
  ?switch:Osiris_switch.Switch.config ->
  ?seed:int ->
  Osiris_topo.Builder.fabric ->
  Osiris_sim.Engine.t * topology
(** Stand a wiring plan up: one engine, one switch per plan entry (the
    plan's port counts override the [switch] config's [nports]), one
    host per attachment point (host [i] gets IP [10.0.0.(i+1)] and host
    seed [config.seed + i]), a striped link pair per host and per trunk
    ([trunk_link] defaults to [link]; use a faster config to model
    undersubscribed uplinks), everything attached and started. [seed]
    (default 7) seeds the link RNGs. Creation order is deterministic —
    equal plans and seeds yield identical fabrics. *)

val star :
  ?n:int ->
  ?machine:Machine.t ->
  ?config:Host.config ->
  ?link:Osiris_link.Atm_link.config ->
  ?switch:Osiris_switch.Switch.config ->
  ?seed:int ->
  unit ->
  Osiris_sim.Engine.t * topology
(** [n] hosts (default 3, minimum 2) on the [n] ports of one switch —
    [instantiate] of [Spec.Star]. *)

val chain :
  ?n:int ->
  ?machine:Machine.t ->
  ?config:Host.config ->
  ?link:Osiris_link.Atm_link.config ->
  ?switch:Osiris_switch.Switch.config ->
  ?seed:int ->
  unit ->
  Osiris_sim.Engine.t * topology
(** [n] hosts (default 4) split across two switches joined by a striped
    trunk link per direction: the first [ceil(n/2)] hosts sit on switch
    0, the rest on switch 1, and each switch's last port is the trunk. *)

val leaf_spine :
  ?leaves:int ->
  ?spines:int ->
  ?hosts_per_leaf:int ->
  ?machine:Machine.t ->
  ?config:Host.config ->
  ?link:Osiris_link.Atm_link.config ->
  ?trunk_link:Osiris_link.Atm_link.config ->
  ?switch:Osiris_switch.Switch.config ->
  ?seed:int ->
  unit ->
  Osiris_sim.Engine.t * topology
(** Two-tier Clos (default 2x2, 2 hosts per leaf): every leaf trunked to
    every spine, [spines] equal-cost paths between hosts on different
    leaves. *)

val fat_tree :
  ?k:int ->
  ?hosts_per_edge:int ->
  ?machine:Machine.t ->
  ?config:Host.config ->
  ?link:Osiris_link.Atm_link.config ->
  ?trunk_link:Osiris_link.Atm_link.config ->
  ?switch:Osiris_switch.Switch.config ->
  ?seed:int ->
  unit ->
  Osiris_sim.Engine.t * topology
(** k-ary fat-tree (default k=4 with one host per edge switch):
    [(k/2)^2] equal-cost paths between hosts in different pods. An
    8-pod tree ([k]=8) with one host per edge stands up 32 hosts and 80
    switches. *)

val host : topology -> int -> Host.t
val nhosts : topology -> int

val fabric : topology -> Osiris_topo.Builder.fabric
(** The wiring plan — path sets via {!Osiris_topo.Builder.paths}, trunk
    endpoints, switch tiers. *)

val spec : topology -> Osiris_topo.Spec.t

val trunk_links : topology -> int -> Osiris_link.Atm_link.t * Osiris_link.Atm_link.t
(** The two directed links of plan trunk [i], as [(a_to_b, b_to_a)]. *)

val open_vc : topology -> src:int -> dst:int -> vc
(** Allocate a fresh virtual circuit from host [src] to host [dst] along
    the {e first} shortest path: fresh VCIs for every hop (starting at
    32, clear of the kernel IP VCI and hand-bound test VCIs),
    routing-table entries with VCI rewriting on each traversed switch,
    and a receive binding of the final VCI to [dst]'s kernel channel.
    The caller sends with [Driver.send ~vci:vc.src_vci] and receives by
    binding [vc.dst_vci] in [dst]'s demux. *)

val path_enumerations : topology -> int
(** How many times the topology has run shortest-path enumeration
    ([Builder.paths]) — at most one per ordered (src, dst) pair, however
    many VCs are opened. The bulk-setup regression test pins this. *)

val open_vc_paths : ?limit:int -> topology -> src:int -> dst:int -> mvc
(** Allocate one complete VCI chain per equal-cost shortest path
    (at most [limit] of them, in {!Osiris_topo.Builder.paths} order),
    binding every receiver-side VCI to [dst]'s kernel channel. Raises
    [Invalid_argument] on bad endpoints or [limit < 1]. *)
