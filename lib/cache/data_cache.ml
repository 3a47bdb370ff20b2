open Osiris_sim
module Phys_mem = Osiris_mem.Phys_mem
module Tc = Osiris_bus.Turbochannel
module Metrics = Osiris_obs.Metrics

type coherence = Software | Hardware_update

type config = {
  size : int;
  line_size : int;
  coherence : coherence;
  cpu_hz : int;
  hit_cycles_per_word : int;
  fill_overhead_cycles : int;
  invalidate_cycles_per_word : int;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidated_lines : int;
  mutable stale_overlaps : int;
  mutable stale_reads : int;
}

(* Registry handles behind [stats]; [stats t] snapshots them. *)
type m = {
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_invalidated_lines : Metrics.counter;
  m_stale_overlaps : Metrics.counter;
  m_stale_reads : Metrics.counter;
}

(* Line [i]'s tag is [tags.(i)] (-1 while the line is invalid) and its
   bytes are [data.\[i * line_size, (i + 1) * line_size)]. [data] is
   never written until a line fills, so the pages of lines no run
   touches stay non-resident. *)
type t = {
  eng : Engine.t;
  mem : Phys_mem.t;
  bus : Tc.t;
  cfg : config;
  tags : int array;
  data : Bytes.t;
  nlines : int;
  mutable pressure_cursor : int;
  m : m;
}

let invalid = -1

let create eng ~mem ~bus cfg =
  if cfg.size <= 0 || cfg.line_size <= 0 || cfg.size mod cfg.line_size <> 0
  then invalid_arg "Data_cache.create: size must be a multiple of line_size";
  let nlines = cfg.size / cfg.line_size in
  {
    eng;
    mem;
    bus;
    cfg;
    nlines;
    pressure_cursor = 0;
    tags = Array.make nlines invalid;
    data = Bytes.create cfg.size;
    m =
      {
        m_hits = Metrics.counter "cache.hits";
        m_misses = Metrics.counter "cache.misses";
        m_invalidated_lines = Metrics.counter "cache.invalidated_lines";
        m_stale_overlaps = Metrics.counter "cache.stale_overlaps";
        m_stale_reads = Metrics.counter "cache.stale_reads";
      };
  }

let config t = t.cfg

let cpu_cycles_ns t cycles =
  (* Round up so a nonzero cost never vanishes. *)
  ((cycles * 1_000_000_000) + t.cfg.cpu_hz - 1) / t.cfg.cpu_hz

let line_tag addr line_size = addr / line_size
let line_base tag line_size = tag * line_size

(* The index of the line that holds [tag] when it is resident. *)
let slot t tag = tag mod t.nlines

(* Copy the memory behind [tag] into its line and mark it resident. *)
let fill t i tag =
  Phys_mem.blit_to_bytes t.mem
    ~src:(line_base tag t.cfg.line_size)
    ~dst:t.data ~dst_off:(i * t.cfg.line_size) ~len:t.cfg.line_size;
  t.tags.(i) <- tag

(* Ensure the line containing [addr] is resident; charge fill cost on miss
   and hit cost for consuming [words_used] words. Returns the line's
   index. *)
let touch_line t addr ~words_used =
  let tag = line_tag addr t.cfg.line_size in
  let i = slot t tag in
  if t.tags.(i) = tag then Metrics.incr t.m.m_hits
  else begin
    Metrics.incr t.m.m_misses;
    (* Fill from main memory across the bus (contends on a shared bus). *)
    Tc.cpu_access t.bus ~bytes:t.cfg.line_size
      ~overhead_cycles:t.cfg.fill_overhead_cycles;
    fill t i tag
  end;
  Process.sleep t.eng
    (cpu_cycles_ns t (words_used * t.cfg.hit_cycles_per_word));
  i

let read_into t ~addr ~len ~dst ~dst_off =
  if len < 0 then invalid_arg "Data_cache.read_into: negative length";
  let ls = t.cfg.line_size in
  let pos = ref addr and out = ref dst_off and remaining = ref len in
  while !remaining > 0 do
    let in_line = ls - (!pos mod ls) in
    let chunk = min !remaining in_line in
    let words = (chunk + 3) / 4 in
    let i = touch_line t !pos ~words_used:words in
    Bytes.blit t.data ((i * ls) + (!pos mod ls)) dst !out chunk;
    pos := !pos + chunk;
    out := !out + chunk;
    remaining := !remaining - chunk
  done;
  (* Stale-read detection (model bookkeeping, not charged time). *)
  if not (Phys_mem.region_equal t.mem ~addr dst ~off:dst_off ~len) then
    Metrics.incr t.m.m_stale_reads

let read t ~addr ~len =
  let out = Bytes.create len in
  read_into t ~addr ~len ~dst:out ~dst_off:0;
  out

let write t ~addr ~src =
  let len = Bytes.length src and ls = t.cfg.line_size in
  (* Write-through: memory is updated and resident lines refreshed. *)
  Phys_mem.blit_from_bytes t.mem ~src ~src_off:0 ~dst:addr ~len;
  let pos = ref addr and off = ref 0 and remaining = ref len in
  while !remaining > 0 do
    let in_line = ls - (!pos mod ls) in
    let chunk = min !remaining in_line in
    let tag = line_tag !pos ls in
    let i = slot t tag in
    if t.tags.(i) = tag then
      Bytes.blit src !off t.data ((i * ls) + (!pos mod ls)) chunk;
    pos := !pos + chunk;
    off := !off + chunk;
    remaining := !remaining - chunk
  done;
  (* Write-through bus traffic: one word-sized write per word, amortized by
     the write buffer into a burst. *)
  Tc.cpu_access t.bus ~bytes:len ~overhead_cycles:1

(* [f] takes the cache explicitly so that it can be a top-level function:
   the per-DMA and per-invalidate walks then build no closure. *)
let iter_lines t ~addr ~len f =
  if len > 0 then begin
    let first = line_tag addr t.cfg.line_size in
    let last = line_tag (addr + len - 1) t.cfg.line_size in
    for tag = first to last do
      f t tag (slot t tag)
    done
  end

let invalidate_line t tag i =
  if t.tags.(i) = tag then begin
    t.tags.(i) <- invalid;
    Metrics.incr t.m.m_invalidated_lines
  end

let invalidate t ~addr ~len =
  let words = (len + 3) / 4 in
  Process.sleep t.eng
    (cpu_cycles_ns t (words * t.cfg.invalidate_cycles_per_word));
  iter_lines t ~addr ~len invalidate_line

let invalidate_all t =
  for i = 0 to t.nlines - 1 do
    if t.tags.(i) <> invalid then begin
      t.tags.(i) <- invalid;
      Metrics.incr t.m.m_invalidated_lines
    end
  done

let pressure t ~lines =
  for _ = 1 to lines do
    t.tags.(t.pressure_cursor) <- invalid;
    t.pressure_cursor <- (t.pressure_cursor + 1) mod t.nlines
  done

let dma_wrote_line t tag i =
  match t.cfg.coherence with
  | Hardware_update ->
      (* The 3000/600's second-level cache is updated (and, as modelled
         here, allocated) by DMA writes, so arriving network data can be
         read back at cache speed (paper §2.7/§4). *)
      fill t i tag
  | Software ->
      if t.tags.(i) = tag then Metrics.incr t.m.m_stale_overlaps

let dma_wrote t ~addr ~len = iter_lines t ~addr ~len dma_wrote_line

let resident t ~addr =
  let tag = line_tag addr t.cfg.line_size in
  t.tags.(slot t tag) = tag

let stats t : stats =
  {
    hits = Metrics.counter_value t.m.m_hits;
    misses = Metrics.counter_value t.m.m_misses;
    invalidated_lines = Metrics.counter_value t.m.m_invalidated_lines;
    stale_overlaps = Metrics.counter_value t.m.m_stale_overlaps;
    stale_reads = Metrics.counter_value t.m.m_stale_reads;
  }
