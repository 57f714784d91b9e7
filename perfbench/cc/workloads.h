// The three benchmark workloads (README.md explains why each exists).
#pragma once

#include "support.h"

namespace perfbench {

// Fault-free Figure 4-7 path: 16 profiles x 4 modes through run_simulation.
Outcome run_sweep(const Args& args);
// Stuck-at campaigns (gcc SRT, gcc BlackJack, BlackJack storage+ECC) through
// the campaign store, then escape autopsies and the stored-file report.
Outcome run_campaign_hard(const Args& args);
// Transient-fault campaign with oracle on equake, autopsy of every
// non-benign run, and the stored-file report.
Outcome run_campaign_soft(const Args& args);

}  // namespace perfbench
