// The largest feasible double of a monotone predicate, in few probes.
//
// Gavel's two solves (docs/MODEL.md §4) each look for the largest ratio x in
// [0, hi] a predicate accepts: the fairness ratio rho of the steady-state
// cache plan, and the throttle level over the effective caches.  Their
// answer is pinned as that of a fixed-count bisection (100 and 80 halvings
// of [0, hi]).  When the predicate is monotone (feasible at x implies
// feasible below x), that loop's answer is a function of x* alone, the
// largest feasible double:
//
//   lo = 0;  repeat steps times: mid = (lo + hi) / 2;  mid <= x* ? lo = mid : hi = mid
//
// so LargestFeasibleRatio finds x* exactly (x* feasible, the next double up
// not) and replays that arithmetic without probing.  It returns the loop's
// bits, also where the loop runs out of halvings before its bracket closes.
//
// The search is regula falsi with the Illinois modification on the probe's
// signed slack (>= 0 exactly when feasible; its size only steers), inside a
// bracket [a, b] with a feasible and b infeasible; a slack that is not
// finite makes it halve, and one that did not move from the endpoint it
// replaces (a flat stretch, such as the one above the ratio where most jobs
// are compute-bound) pulls the next step twice as hard toward the other end.  Near x* the slack is rounding noise and may hold
// still over many doubles, so an endpoint that keeps moving gallops, and a
// gallop that crosses x* is closed by halving.  A budget keeps every search
// within the loop's probe count: a steered probe is taken only while, after
// it, halving the bracket over the ordered bit patterns of its doubles (at
// most ceil(log2 of the doubles it holds) probes) would still fit in
// `steps`; otherwise the search halves in bit space, which always fits.
#ifndef SILOD_SRC_SCHED_RATIO_SEARCH_H_
#define SILOD_SRC_SCHED_RATIO_SEARCH_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace silod {

// One evaluation of the predicate at a point.
struct SearchProbe {
  bool feasible = false;
  // Signed distance to the boundary in any fixed unit: >= 0 when feasible,
  // < 0 when not.  NaN or infinite when unknown; the search then halves.
  double slack = 0;
};

struct RatioSearch {
  double value = 0;    // What the fixed `steps`-step bisection returned.
  double largest = 0;  // x*: hi when hi is feasible.
  int probes = 0;      // Predicate evaluations, the one at hi included.
};

// The old loop's answer for a predicate whose largest feasible double in
// [0, hi) is `largest`, replayed without probing.
inline double ReplayBisection(double hi, int steps, double largest) {
  double lo = 0;
  for (int i = 0; i < steps; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= largest) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Searches [0, hi] (hi > 0 finite) for the largest double `probe` accepts,
// assuming monotone feasibility with 0 feasible, and returns what
//
//   if (feasible(hi)) lo = hi; else { lo = 0; `steps` halvings of [lo, hi] }
//
// returned, with at most the 1 + `steps` probes that loop made.  0 is not
// probed: `slack_at_zero` stands in for its slack, and only steers.  (Were 0
// infeasible after all, nothing below hi would be, and the search would
// return 0, as the loop did.)  `first`, when inside (0, hi), is the first
// probe after hi: a caller's estimate of x*.  `steps` must be at least 63:
// halving in bit space closes any bracket in [0, hi] within 63 probes.
template <typename Probe>
RatioSearch LargestFeasibleRatio(double hi, int steps, double slack_at_zero, double first,
                                 Probe&& probe) {
  RatioSearch out;
  const SearchProbe at_hi = probe(hi);
  out.probes = 1;
  if (at_hi.feasible) {
    out.value = out.largest = hi;
    return out;
  }
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  // Worst-case bit-space halvings to close a bracket holding `gap` steps.
  const auto halvings = [](std::uint64_t gap) { return static_cast<int>(std::bit_width(gap - 1)); };
  double a = 0.0;  // Feasible.
  double b = hi;   // Infeasible.
  double fa = slack_at_zero;
  double fb = at_hi.slack;
  int streak = 0;        // +n after n probes in a row moved a, -n after n moved b.
  bool closing = false;  // Halving to the end.
  while (bits(b) - bits(a) > 1) {
    const std::uint64_t gap = bits(b) - bits(a);
    std::uint64_t at = bits(a) + gap / 2;  // The next probe, as a bit pattern.
    bool gallop = false;
    if (!closing && out.probes + halvings(gap) <= steps) {
      double x = 0.5 * (a + b);
      if (out.probes == 1 && first > a && first < b) {
        x = first;
      } else if (fa >= 0 && fb < 0 && std::isfinite(fa - fb)) {
        x = a + (b - a) * (fa / (fa - fb));
      }
      at = x > a ? bits(std::min(x, b)) : bits(a);  // Clamped below.
      // Near x* the slack is rounding noise, and it may sit at exactly 0
      // over many doubles, so an endpoint that keeps moving takes steps
      // that double, counted in doubles, from its second move in a row: a
      // walk toward x* one ulp at a time becomes a gallop.
      const int run = streak > 0 ? streak : -streak;
      const std::uint64_t reach = run >= 2 && run < 64 ? std::uint64_t{1} << (run - 1) : 1;
      if (streak > 0 && at < bits(a) + reach) {
        at = bits(a) + std::min(reach, gap / 2);
        gallop = true;
      } else if (streak < 0 && at + reach > bits(b)) {
        at = bits(b) - std::min(reach, gap / 2);
        gallop = true;
      }
      at = std::clamp(at, bits(a) + 1, bits(b) - 1);
    }
    const double x = std::bit_cast<double>(at);
    const SearchProbe at_x = probe(x);
    ++out.probes;
    // A gallop that crossed x* leaves a bracket the slack cannot see into
    // (it held still, or moved by rounding noise, across it): halve it.
    closing = closing || (gallop && at_x.feasible != (streak > 0));
    // A slack equal to the one it replaces marks a flat stretch: pull the
    // next step toward the far end harder than Illinois does.
    if (at_x.feasible) {
      const bool flat = at_x.slack == fa;
      a = x;
      fa = at_x.slack;
      if (flat) {
        fb *= 0.25;
      } else if (streak > 0) {
        fb *= 0.5;  // Illinois: b kept twice, so pull the next step toward it.
      }
      streak = streak > 0 ? streak + 1 : 1;
    } else {
      const bool flat = at_x.slack == fb;
      b = x;
      fb = at_x.slack;
      if (flat) {
        fa *= 0.25;
      } else if (streak < 0) {
        fa *= 0.5;
      }
      streak = streak < 0 ? streak - 1 : -1;
    }
  }
  out.largest = a;
  out.value = ReplayBisection(hi, steps, a);
  return out;
}

}  // namespace silod

#endif  // SILOD_SRC_SCHED_RATIO_SEARCH_H_
