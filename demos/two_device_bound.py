"""Where does blind retransmission stop being enough?

One legacy device transmits blindly; a second device must squeeze its own
deadline-limited packets into the gaps.  This demo sweeps the legacy device's
transmit probability and compares three numbers at lifetime 1:

  * the omniscient optimum (policy iteration on the genie MDP that also
    sees the legacy device's queue),
  * the best constant rule for the second device (always send / never send),
  * and what a short learning run actually achieves.

While the legacy device is quiet the constant rule is already optimal and the
learner recovers it from feedback alone.  Once the legacy device transmits
often enough, beating the constant rule would require knowing the neighbour's
queue, which no real device observes: the gap column prices that missing
information, and the learner correctly tracks the constant optimum rather
than the genie.
"""

from dcra.mdp import (
    TwoDeviceParams,
    build_mdp,
    optimal_constant_policy,
    upper_bound,
)
from dcra.experiments import simulate_two_device


def main() -> None:
    print(f"{'p_transmit':>10} {'bound':>9} {'best const':>10} "
          f"{'learned':>8}  note")
    for peer_transmit in (0.1, 0.3, 0.5, 0.7, 0.9):
        params = TwoDeviceParams(
            peer_arrival=0.9,
            agent_arrival=0.8,
            peer_success=0.6,
            agent_success=0.6,
            peer_transmit=peer_transmit,
        )
        bound = upper_bound(build_mdp(params, lifetime=1)).value
        _, const = optimal_constant_policy(params)
        learned, _ = simulate_two_device(
            params, lifetime=1, agent="r-tiny", slots=150_000,
            seed=1, window=50_000,
        )
        gap = bound - const
        note = "constant rule optimal" if gap < 1e-9 else f"gap {gap:.3f}"
        print(f"{peer_transmit:>10.1f} {bound:>9.4f} {const:>10.4f} "
              f"{learned:>8.4f}  {note}")


if __name__ == "__main__":
    main()
