type kind =
  | Table of (unit -> Report.table)
  | Figure of (unit -> Report.figure)

type entry = { id : string; description : string; kind : kind }

let all =
  [
    {
      id = "table1";
      description = "Table 1: round-trip latencies (ATM & UDP/IP, both machines)";
      kind = Table (fun () -> Table1.table ());
    };
    {
      id = "figure2";
      description =
        "Figure 2: DEC 5000/200 receive-side throughput (DMA length, cache \
         invalidation)";
      kind = Figure (fun () -> Receive_side.figure2 ());
    };
    {
      id = "figure3";
      description =
        "Figure 3: DEC 3000/600 receive-side throughput (DMA length x UDP \
         checksum)";
      kind = Figure (fun () -> Receive_side.figure3 ());
    };
    {
      id = "figure4";
      description = "Figure 4: transmit-side throughput (both machines)";
      kind = Figure (fun () -> Transmit_side.figure4 ());
    };
    {
      id = "host-to-host";
      description = "4 (closing prediction): double-cell host-to-host throughput";
      kind = Table Host_to_host.table;
    };
    {
      id = "dma-bounds";
      description = "2.5.1: closed-form and simulated TURBOchannel DMA bounds";
      kind = Table Dma_bounds.table;
    };
    {
      id = "ablation-interrupts";
      description = "2.1.2: interrupts per PDU vs packet spacing";
      kind = Table Ablation_interrupts.table;
    };
    {
      id = "ablation-lockfree";
      description = "2.1.1: lock-free queues vs spin-locked dual-port access";
      kind = Table Ablation_lockfree.table;
    };
    {
      id = "ablation-fragmentation";
      description = "2.2: physical buffers per message vs MTU/alignment policy";
      kind = Table Ablation_fragmentation.table;
    };
    {
      id = "ablation-lazy-cache";
      description = "2.3: lazy vs eager cache invalidation, real stale data";
      kind = Table Ablation_lazy_cache.table;
    };
    {
      id = "ablation-wiring";
      description = "2.4: Mach vs low-level page wiring";
      kind = Table Ablation_wiring.table;
    };
    {
      id = "ablation-multiplexing";
      description = "2.5.1: transmit multiplexing granularity vs small-message latency";
      kind = Table Ablation_multiplexing.table;
    };
    {
      id = "ablation-skew";
      description = "2.6: reassembly strategies and combining under skew";
      kind = Table Ablation_skew.table;
    };
    {
      id = "ablation-dma-pio";
      description = "2.7: DMA vs PIO application-access rates";
      kind = Table Ablation_dma_pio.table;
    };
    {
      id = "ablation-fbufs";
      description = "3.1: cached vs uncached fbuf transfers";
      kind = Table Ablation_fbufs.table;
    };
    {
      id = "ablation-priority";
      description = "3.1: priority drop under receiver overload";
      kind = Table Ablation_priority.table;
    };
    {
      id = "ablation-ethernet";
      description = "4: Ethernet baseline vs OSIRIS latency/throughput";
      kind = Table Ablation_ethernet.table;
    };
    {
      id = "ablation-adc";
      description = "3.2: ADC vs kernel paths; protection check";
      kind = Table Ablation_adc.table;
    };
    {
      id = "fault-sweep";
      description =
        "robustness: byte-verified goodput vs cell-drop probability, \
         recovery timers on";
      kind = Figure (fun () -> Fault_soak.figure_goodput_vs_drop ());
    };
    {
      id = "incast";
      description =
        "fabric: N-sender incast through one switch port vs output-queue \
         capacity, losses fully accounted";
      kind = Figure (fun () -> Incast.figure_goodput_vs_queue ());
    };
    {
      id = "congestion";
      description =
        "transport: windowed senders incast one switch port; retransmitted \
         bytes vs queue capacity, ECN marking off vs on, goodput held \
         within 10% of a lossless baseline";
      kind = Figure (fun () -> Congestion.figure_retransmits_vs_queue ());
    };
    {
      id = "multipath";
      description =
        "fabric: permutation + incast on an 8-pod fat-tree; REPS recycled-\
         entropy spraying vs static-hash ECMP vs single path, mid-run trunk \
         cut rerouted within 100us simulated";
      kind = Figure (fun () -> Multipath.figure ());
    };
    {
      id = "demux_scale";
      description =
        "adaptor: per-cell classification cost vs concurrent VCs (64 -> \
         8192), hashed board demux + switch routing vs linear-scan \
         baseline, both machines, CDF-driven flows, oracles audited";
      kind = Figure (fun () -> Demux_scale.figure ());
    };
    {
      id = "engine_speed";
      description =
        "simulator: engine events/sec on a 1M-event star workload, \
         delivered without drops or leaks";
      kind = Figure (fun () -> Engine_speed.figure ());
    };
  ]

let quick =
  List.filter
    (fun e ->
      not
        (List.mem e.id
           [ "figure2"; "figure3"; "figure4"; "incast"; "congestion";
             "multipath"; "engine_speed"; "demux_scale" ]))
    all

let find id = List.find_opt (fun e -> e.id = id) all

type result = R_table of Report.table | R_figure of Report.figure

let eval e =
  match e.kind with
  | Table f -> R_table (f ())
  | Figure f -> R_figure (f ())

let print_result = function
  | R_table t -> Report.print_table t
  | R_figure f -> Report.print_figure f

let result_json = function
  | R_table t -> Report.table_json t
  | R_figure f -> Report.figure_json f

let run e = print_result (eval e)

let ids () = List.map (fun e -> e.id) all
