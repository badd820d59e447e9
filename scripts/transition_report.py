#!/usr/bin/env python3
"""Print the transition landmarks of the noisy GHZ register.

Summarises, per channel: when the concurrence lower bound vanishes,
where the discord changes branch, and how the channels rank at two
reference times.  All numbers come straight from the package API.
"""

import sys

from ghzdyn.channels import Channel, closed_form_state
from ghzdyn.discord import analytic_gqd, global_discord, sudden_change_point
from ghzdyn.entanglement import (
    analytic_tau,
    ppt_min_eigenvalue,
    tau_lower_bound,
    tau_vanishing_time,
)

CHANNELS = (Channel.X, Channel.Y, Channel.Z, Channel.ISO)


def main() -> int:
    print("transition landmarks (all times in units of kappa*t)")
    print()
    print(f"{'channel':<10} {'bound vanishes at':<20} {'discord kink at':<18}")
    roots = {channel: tau_vanishing_time(channel) for channel in CHANNELS}
    for channel, root in roots.items():
        root_text = f"{root:.6f}" if root is not None else "never"
        try:
            kink_text = f"{sudden_change_point(channel):.6f}"
        except ValueError:
            kink_text = "no branch crossing"
        print(f"{channel.value:<10} {root_text:<20} {kink_text:<18}")

    for kt in (0.1, 0.3):
        print()
        print(f"snapshot at kappa*t = {kt}")
        print(f"{'channel':<10} {'tau (closed)':<14} {'tau (state)':<14} "
              f"{'discord (closed)':<18} {'discord (optim)':<16} {'min PT eig':<12}")
        for channel in CHANNELS:
            state = closed_form_state(channel, kt)
            tau_closed = analytic_tau(channel, kt)
            tau_state = tau_lower_bound(state).value
            d_closed = analytic_gqd(channel, kt)
            d_optim = global_discord(state).value
            witness = ppt_min_eigenvalue(state, (0,))
            print(f"{channel.value:<10} {tau_closed:<14.8f} {tau_state:<14.8f} "
                  f"{d_closed:<18.10f} {d_optim:<16.10f} {witness:<12.3e}")

    print()
    # The reading follows the vanishing times above: earliest first, equal times together.
    vanishing = sorted((c for c in CHANNELS if roots[c] is not None), key=roots.get)
    times = dict.fromkeys(f"{roots[c]:.6f}" for c in vanishing)
    order = [" and ".join(c.value for c in vanishing if f"{roots[c]:.6f}" == t) + f" ({t})" for t in times]
    never = " and ".join(c.value for c in CHANNELS if roots[c] is None)
    *others, last = [c.value for c in vanishing if analytic_gqd(c, roots[c]) > 0.0]
    print(f"reading: the concurrence bound vanishes first under {', then under '.join(order)},")
    print(f"and never under {never}; discord outlives it under {', '.join(others)} and {last},")
    print(f"but not under {never} (dephasing), where the bound never dies.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
