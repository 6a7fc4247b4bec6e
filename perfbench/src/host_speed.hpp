// The host's current speed, from a fixed reference kernel.
//
// The benchmark runs on shared hosts whose speed for one process moves by
// up to 2x within seconds (other tenants on the same cores and caches; no
// steal time is reported). A timed window of the simulator is therefore
// bracketed by two runs of a reference kernel that shares no code with the
// simulator: the kernel's time says how fast the host ran just then, and
// the window's time over the kernel's is the simulator's cost in host-
// independent units (see run.py, which turns it back into seconds).
//
// The kernel resembles a discrete-event loop: a binary min-heap of 4096
// pending timestamps, each pop touching a per-entity record in a 4 MiB
// table before the next timestamp is pushed. It is compiled with the
// benchmark, not with src/, so a change to the simulator never changes it,
// and it runs in the calling thread only: a multi-threaded kernel tracked
// dumbbell-4096-par2 worse than the main thread's core alone.
#pragma once

namespace perfbench {

// Wall seconds of one run of the reference kernel: 8-10 ms on a shared
// 2.1 GHz Xeon core.
double reference_s();

}  // namespace perfbench
