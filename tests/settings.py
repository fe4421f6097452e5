"""Named Hypothesis settings tiers (after SNIPPETS.md snippet 3).

``HYPOTHESIS_PROFILE`` selects the tier :data:`SELECTED` resolves to —
``quick`` when unset, which is what tier-1 runs; CI's nightly job runs
the stateful tests with ``state_machine``:

* :data:`QUICK` — 20 examples, fast validation;
* :data:`STANDARD` — 100 examples, regular property tests;
* :data:`STATE_MACHINE` — 200 examples, stateful tests.

A test opts in by taking :data:`SELECTED` as its settings (a state
machine: ``Machine.TestCase.settings = SELECTED``).  Tests that name
their own ``max_examples`` keep it: no profile is loaded globally
(first step of ROADMAP 9's layering).
"""

import os

from hypothesis import settings

QUICK = settings(max_examples=20, deadline=None)
STANDARD = settings(max_examples=100, deadline=None)
STATE_MACHINE = settings(max_examples=200, deadline=None)

PROFILES = {
    "quick": QUICK,
    "standard": STANDARD,
    "state_machine": STATE_MACHINE,
}

_name = os.environ.get("HYPOTHESIS_PROFILE", "quick").lower()
if _name not in PROFILES:
    raise ValueError(
        f"HYPOTHESIS_PROFILE={_name!r}; expected one of {sorted(PROFILES)}"
    )

#: The tier this run was asked for.
SELECTED = PROFILES[_name]
