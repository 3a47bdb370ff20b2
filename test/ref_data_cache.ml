(* Reference model for the differential cache test: the record-per-line
   data cache the flat layout replaced, kept verbatim in behaviour. Every
   line owns its own [Bytes.t]; stats are plain counters. *)

open Osiris_sim
module Phys_mem = Osiris_mem.Phys_mem
module Tc = Osiris_bus.Turbochannel
module Cache = Osiris_cache.Data_cache

type line = { mutable tag : int; mutable valid : bool; data : Bytes.t }

type t = {
  eng : Engine.t;
  mem : Phys_mem.t;
  bus : Tc.t;
  cfg : Cache.config;
  lines : line array;
  nlines : int;
  mutable pressure_cursor : int;
  st : Cache.stats;
}

let create eng ~mem ~bus (cfg : Cache.config) =
  let nlines = cfg.size / cfg.line_size in
  {
    eng;
    mem;
    bus;
    cfg;
    nlines;
    pressure_cursor = 0;
    lines =
      Array.init nlines (fun _ ->
          { tag = -1; valid = false; data = Bytes.create cfg.line_size });
    st =
      {
        Cache.hits = 0;
        misses = 0;
        invalidated_lines = 0;
        stale_overlaps = 0;
        stale_reads = 0;
      };
  }

let cpu_cycles_ns t cycles =
  ((cycles * 1_000_000_000) + t.cfg.cpu_hz - 1) / t.cfg.cpu_hz

let line_index t addr = addr / t.cfg.line_size mod t.nlines
let line_tag addr line_size = addr / line_size
let line_base tag line_size = tag * line_size

let touch_line t addr ~words_used =
  let tag = line_tag addr t.cfg.line_size in
  let line = t.lines.(line_index t addr) in
  if line.valid && line.tag = tag then t.st.hits <- t.st.hits + 1
  else begin
    t.st.misses <- t.st.misses + 1;
    Tc.cpu_access t.bus ~bytes:t.cfg.line_size
      ~overhead_cycles:t.cfg.fill_overhead_cycles;
    Phys_mem.blit_to_bytes t.mem
      ~src:(line_base tag t.cfg.line_size)
      ~dst:line.data ~dst_off:0 ~len:t.cfg.line_size;
    line.tag <- tag;
    line.valid <- true
  end;
  Process.sleep t.eng
    (cpu_cycles_ns t (words_used * t.cfg.hit_cycles_per_word));
  line

let read t ~addr ~len =
  let dst = Bytes.create len in
  let pos = ref addr and out = ref 0 and remaining = ref len in
  while !remaining > 0 do
    let in_line = t.cfg.line_size - (!pos mod t.cfg.line_size) in
    let chunk = min !remaining in_line in
    let line = touch_line t !pos ~words_used:((chunk + 3) / 4) in
    Bytes.blit line.data (!pos mod t.cfg.line_size) dst !out chunk;
    pos := !pos + chunk;
    out := !out + chunk;
    remaining := !remaining - chunk
  done;
  if not (Phys_mem.region_equal t.mem ~addr dst ~off:0 ~len) then
    t.st.stale_reads <- t.st.stale_reads + 1;
  dst

let write t ~addr ~src =
  let len = Bytes.length src in
  Phys_mem.blit_from_bytes t.mem ~src ~src_off:0 ~dst:addr ~len;
  let pos = ref addr and off = ref 0 and remaining = ref len in
  while !remaining > 0 do
    let in_line = t.cfg.line_size - (!pos mod t.cfg.line_size) in
    let chunk = min !remaining in_line in
    let tag = line_tag !pos t.cfg.line_size in
    let line = t.lines.(line_index t !pos) in
    if line.valid && line.tag = tag then
      Bytes.blit src !off line.data (!pos mod t.cfg.line_size) chunk;
    pos := !pos + chunk;
    off := !off + chunk;
    remaining := !remaining - chunk
  done;
  Tc.cpu_access t.bus ~bytes:len ~overhead_cycles:1

let iter_lines t ~addr ~len f =
  if len > 0 then
    for
      tag = line_tag addr t.cfg.line_size
      to line_tag (addr + len - 1) t.cfg.line_size
    do
      f tag t.lines.(line_index t (line_base tag t.cfg.line_size))
    done

let invalidate t ~addr ~len =
  Process.sleep t.eng
    (cpu_cycles_ns t ((len + 3) / 4 * t.cfg.invalidate_cycles_per_word));
  iter_lines t ~addr ~len (fun tag line ->
      if line.valid && line.tag = tag then begin
        line.valid <- false;
        t.st.invalidated_lines <- t.st.invalidated_lines + 1
      end)

let invalidate_all t =
  Array.iter
    (fun line ->
      if line.valid then begin
        line.valid <- false;
        t.st.invalidated_lines <- t.st.invalidated_lines + 1
      end)
    t.lines

let pressure t ~lines =
  for _ = 1 to lines do
    t.lines.(t.pressure_cursor).valid <- false;
    t.pressure_cursor <- (t.pressure_cursor + 1) mod t.nlines
  done

let dma_wrote t ~addr ~len =
  iter_lines t ~addr ~len (fun tag line ->
      match t.cfg.coherence with
      | Cache.Hardware_update ->
          Phys_mem.blit_to_bytes t.mem
            ~src:(line_base tag t.cfg.line_size)
            ~dst:line.data ~dst_off:0 ~len:t.cfg.line_size;
          line.tag <- tag;
          line.valid <- true
      | Cache.Software ->
          if line.valid && line.tag = tag then
            t.st.stale_overlaps <- t.st.stale_overlaps + 1)

let resident t ~addr =
  let line = t.lines.(line_index t addr) in
  line.valid && line.tag = line_tag addr t.cfg.line_size

let stats t = { t.st with Cache.hits = t.st.hits }
