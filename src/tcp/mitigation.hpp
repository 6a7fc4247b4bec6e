// The reordering mitigations of Blanton & Allman, "On Making TCP More
// Robust to Packet Reordering" (CCR 2002) — reference [3] of the paper and
// the comparison set of its Figure 6.
//
// All variants ride on the SACK sender with DSACK processing enabled. On a
// detected spurious retransmission each restores the pre-reduction window
// (via ssthresh, so the sender slow-starts back up — [3] footnote 3) and
// then adjusts dupthresh per its policy:
//   kDsackNoMitigation ("DSACK-NM"): dupthresh untouched.
//   kIncByOne          ("Inc by 1"): dupthresh += 1 per spurious event.
//   kIncByN            ("Inc by N"): dupthresh = avg(dupthresh, extent)
//                                    where extent = dupacks that caused it.
//   kEwma              ("EWMA")    : dupthresh tracks an EWMA of extents.
#pragma once

#include "tcp/sack.hpp"

namespace tcppr::tcp {

enum class DupthreshPolicy {
  kDsackNoMitigation,
  kIncByOne,
  kIncByN,
  kEwma,
};

const char* to_string(DupthreshPolicy policy);

class MitigationSender final : public SackSender {
 public:
  MitigationSender(net::Network& network, net::NodeId local,
                   net::NodeId remote, FlowId flow, DupthreshPolicy policy,
                   TcpConfig config = {});

  const char* algorithm() const override { return to_string(policy_); }
  DupthreshPolicy policy() const { return policy_; }
  double ewma_extent() const { return ewma_; }

 protected:
  void on_spurious_retransmit(SeqNo seq, int reorder_extent) override;

 private:
  DupthreshPolicy policy_;
  double ewma_;
  static constexpr double kEwmaGain = 0.25;
};

}  // namespace tcppr::tcp
