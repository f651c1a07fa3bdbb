"""Synthetic reproduction of the Internet middlebox study (§3, [9]).

The paper validates MPTCP's design against measurements from 142 access
networks in 24 countries.  We cannot re-run the Internet; instead
:mod:`repro.study.generative` enumerates 142 paths per port column whose
middlebox behaviours occur at the *observed* rates (6% strip SYN
options — 14% on port 80; 10%/18% rewrite ISNs; 5%/11% block data after
holes; 26%/33% mishandle ACKs for unseen data), and
:mod:`repro.study.microsim` drives the real protocol implementations
over each path:

* plain TCP          — must work on 100% of paths (the baseline),
* MPTCP              — must *complete* on 100% of paths, negotiating
                       multipath where possible and falling back
                       cleanly where not (§3.1's deployability bar),
* the strawman design — single sequence space striped over two paths —
                       which the hole-blocking and ACK-mishandling
                       middleboxes break ("a third of paths will break
                       such connections").

The same module generalises the fixed table into a declarative
:class:`PopulationSpec` (per-AS behaviour mixes, MPTCP v0/v1 endpoint
splits, ADD_ADDR-filtering firewalls), and :mod:`repro.study.scale`
runs every population — the 142-path table included — by deduplicating
paths onto distinct behaviour signatures::

    python -m repro.study.scale --paths 100000 --spec internet2021
"""

from repro.study.generative import (
    ASClass,
    BehaviourMix,
    PopulationSpec,
    SampledPath,
    get_spec,
    paper_population,
    sample_path,
    sample_population,
)

__all__ = [
    "ASClass",
    "BehaviourMix",
    "PopulationSpec",
    "SampledPath",
    "get_spec",
    "paper_population",
    "sample_path",
    "sample_population",
]
