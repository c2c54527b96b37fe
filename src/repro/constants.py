"""Shared physical constants of the simulated platform.

One place for the numbers that several layers must agree on.  The paper's
testbed (Grid'5000 bare metal, EC2 "Large" instances) runs Gigabit
Ethernet, so the default link bandwidth is 1 Gbit/s everywhere a
bandwidth appears:

* the network fabric's per-message serialization delay and per-link
  transfer capacity (:mod:`repro.network.fabric`,
  :mod:`repro.network.transfers`);
* Harmony's analytic propagation-time term ``avg_write_size / bandwidth``
  (:func:`repro.control.monitor.propagation_time`).

Before this module existed the three sites each carried their own literal
``125_000_000.0``; an override in one place silently diverged the
estimator from the simulator.

This module lives at the package top level (not ``repro.control``) so leaf
modules like the fabric can import it without triggering the heavier
package ``__init__`` chains.
"""

from __future__ import annotations

__all__ = ["DEFAULT_BANDWIDTH_BYTES_PER_S"]

#: 1 Gbit/s in bytes per second -- the paper's Gigabit Ethernet testbed.
DEFAULT_BANDWIDTH_BYTES_PER_S = 125_000_000.0
