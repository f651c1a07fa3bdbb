"""The middlebox path population: the paper's 142-path table and a
generative model that scales it.

The paper's measurement study covered 142 real access paths per port
column.  Each path is a :class:`SampledPath`: a bundle of middlebox
behaviours.  The aggregate rates are compositional — some ISN rewriting
comes from full proxies that also strip options and block holes, some
from standalone "randomization-improving" firewalls — so behaviour
*classes* are mutually exclusive bundles (a "proxy" bundles option
stripping + ISN rewriting + hole blocking + ACK correction; an
"isn_only" firewall rewrites and nothing else), while NAT presence and
ADD_ADDR filtering are independent per-path draws.  The marginals the
paper tabulates fall out of the class mix:

====================================  ===========  =======
behaviour                             other ports  port 80
====================================  ===========  =======
removes options from SYN                    6%        14%
rewrites initial sequence numbers          10%        18%
does not pass data after a hole             5%        11%
mishandles ACK for unseen data             26%        33%
====================================  ===========  =======

:func:`paper_population` enumerates one column exactly (class counts
out of 142).  A :class:`PopulationSpec` generalises the table into
per-AS-class behaviour rates, and :func:`sample_path` draws path number
``i`` from it — so the same machinery pushes to 10^5–10^6 sampled paths
(see :mod:`repro.study.scale`).

Presets:

* ``paper2011`` / ``paper2011-port80`` — the paper's two measurement
  columns, expressed as rates (class counts / 142) so that large-N
  samples converge on the same aggregates :func:`paper_population` hits
  exactly.
* ``internet2021`` / ``internet2022`` — mixes modelled on the follow-up
  deployment measurements a decade later (Aschenbrenner et al. 2021,
  "Measuring Multipath TCP on Real Networks"; Shreedhar et al. 2022):
  far fewer option strippers than 2011, residual ISN rewriters, CGNAT
  nearly universal on cellular, a population of stateful firewalls that
  pass DSS but filter ADD_ADDR, and — new since the paper — a *version*
  split between MPTCP v0 (RFC 6824) and v1 (RFC 8684) endpoints whose
  mismatches produce plain-TCP fallbacks that no middlebox caused.

Every draw for path ``i`` comes from ``SeededRNG(seed, f"scale-path-{i}")``:
sampling is a pure function of ``(spec, index, seed)``, independent of
batching or worker count — the property the determinism tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.middlebox import (
    NAT,
    AckCoercer,
    AddAddrFilter,
    HoleBlocker,
    OptionStripper,
    SequenceRewriter,
)
from repro.net.path import PathElement
from repro.sim.rng import SeededRNG

# Behaviour-class counts out of 142 paths, per the study's two columns:
# class: (count other ports, count port 80); chosen so aggregates hit
# the paper's table: strip 9/20 (6%/14%), ISN 14/26 (10%/18%),
# holes 7/16 (5%/11%), ack 37/47 (26%/33%).  A "proxy" matches the
# paper's observation that most hole-blockers "seem to be proxies that
# block new options on SYNs".  Insertion order is the draw order.
CLASS_COUNTS = {
    "proxy": (6, 14),  # strips options, rewrites, blocks holes, corrects acks
    "stripper_all": (3, 6),  # strips options from every segment
    "isn_only": (8, 12),  # standalone ISN randomizers
    "hole_only": (1, 2),  # non-proxy hole blockers
    "ack_drop": (16, 17),  # drop ACKs for unseen data
    "ack_correct": (15, 16),  # "correct" them instead
}
POPULATION_SIZE = 142
NAT_FRACTION = 0.45

# The path flags each class sets; "clean" sets none.  Proxies
# regenerate segments, so they strip options from every one.
_STRIP_ALL = dict(strips_syn_options=True, strips_all_options=True)
_CLASS_FLAGS: dict[str, dict] = {
    "proxy": dict(_STRIP_ALL, rewrites_isn=True, blocks_holes=True, ack_mode="correct"),
    "stripper_all": _STRIP_ALL,
    "isn_only": dict(rewrites_isn=True),
    "hole_only": dict(blocks_holes=True),
    "ack_drop": dict(ack_mode="drop"),
    "ack_correct": dict(ack_mode="correct"),
    "clean": {},
}


@dataclass(frozen=True)
class BehaviourMix:
    """Behaviour-class probabilities inside one AS class.

    The six class rates are mutually exclusive (their sum must stay
    ≤ 1; the remainder is the clean-path probability); ``nat`` and
    ``add_addr_filter`` are orthogonal per-path coin flips.
    """

    proxy: float = 0.0
    stripper_all: float = 0.0
    isn_only: float = 0.0
    hole_only: float = 0.0
    ack_drop: float = 0.0
    ack_correct: float = 0.0
    nat: float = 0.0
    add_addr_filter: float = 0.0

    def class_weights(self) -> tuple[tuple[float, str], ...]:
        """``(probability, class)`` pairs including the clean remainder."""
        pairs = tuple((getattr(self, name), name) for name in CLASS_COUNTS)
        remainder = 1.0 - sum(weight for weight, _ in pairs)
        if remainder < -1e-9:
            raise ValueError(f"behaviour class rates sum past 1: {self}")
        return pairs + ((max(0.0, remainder), "clean"),)

    def marginals(self) -> dict[str, float]:
        """Expected per-behaviour marginal rates (what the paper's table
        reports), derived from the class mix."""
        return {
            "strip_syn_options": self.proxy + self.stripper_all,
            "strip_all_options": self.proxy + self.stripper_all,
            "isn_rewrite": self.proxy + self.isn_only,
            "hole_block": self.proxy + self.hole_only,
            "ack_mishandle": self.proxy + self.ack_drop + self.ack_correct,
            "nat": self.nat,
            "add_addr_filter": self.add_addr_filter,
        }


@dataclass(frozen=True)
class ASClass:
    """One stratum of the path population (e.g. "cellular-cgnat")."""

    name: str
    weight: float
    mix: BehaviourMix


@dataclass(frozen=True)
class PopulationSpec:
    """A declarative recipe for an internet-scale path population.

    ``client_versions`` / ``server_versions`` are weighted mixes of the
    MPTCP version sets endpoints support — ``(0,)`` a v0-only stack,
    ``(1,)`` v1-only, ``(0, 1)`` dual.  ``server_multihomed`` is the
    share of paths where the *server* owns the second address (so
    multipath depends on ADD_ADDR crossing the path, §3.2);
    ``rate_tiers`` weight the secondary path's capacity relative to the
    primary, which spreads the aggregation-benefit distribution.
    """

    name: str
    description: str
    classes: tuple[ASClass, ...]
    client_versions: tuple[tuple[float, tuple[int, ...]], ...] = ((1.0, (0,)),)
    server_versions: tuple[tuple[float, tuple[int, ...]], ...] = ((1.0, (0,)),)
    server_multihomed: float = 0.0
    rate_tiers: tuple[tuple[float, float], ...] = ((1.0, 1.0),)

    def marginals(self) -> dict[str, float]:
        """Population-level expected marginal rates (class-weighted)."""
        total = sum(cls.weight for cls in self.classes)
        out = {key: 0.0 for key in BehaviourMix().marginals()}
        for cls in self.classes:
            share = cls.weight / total
            for key, rate in cls.mix.marginals().items():
                out[key] += share * rate
        out["server_multihomed"] = self.server_multihomed
        return out


def _draw(rng: SeededRNG, pairs):
    """One weighted draw from ``(weight, value)`` pairs, in given order."""
    total = sum(weight for weight, _ in pairs)
    u = rng.random() * total
    acc = 0.0
    for weight, value in pairs:
        acc += weight
        if u < acc:
            return value
    return pairs[-1][1]


@dataclass
class SampledPath:
    """The middlebox behaviours present on one access path, plus the
    post-2011 dimensions: ADD_ADDR filtering, endpoint version support,
    which side is multihomed, and the secondary path's relative
    capacity."""

    index: int
    as_class: str = ""
    # The signature is every field below: a path's simulated outcome is
    # a pure function of them (plus the seed), so two paths with equal
    # signatures are the same microsimulation — which is what lets the
    # scale driver fold a million paths into a few hundred distinct runs.
    strips_syn_options: bool = False
    strips_all_options: bool = False
    rewrites_isn: bool = False
    blocks_holes: bool = False
    ack_mode: str = "pass"  # 'pass' | 'drop' | 'correct'
    has_nat: bool = False
    behaviour_class: str = "clean"
    add_addr_filtered: bool = False
    server_multihomed: bool = False
    client_versions: tuple[int, ...] = (0,)
    server_versions: tuple[int, ...] = (0,)
    rate_ratio: float = 1.0

    def behaviours(self) -> list[str]:
        found: list = []
        if self.strips_all_options:
            found.append("strip-all-options")
        elif self.strips_syn_options:
            found.append("strip-syn-options")
        if self.rewrites_isn:
            found.append("isn-rewrite")
        if self.blocks_holes:
            found.append("hole-block")
        if self.ack_mode != "pass":
            found.append(f"ack-{self.ack_mode}")
        if self.has_nat:
            found.append("nat")
        if self.add_addr_filtered:
            found.append("add-addr-filter")
        return found

    def build_elements(
        self, rng: SeededRNG, nat_ip: str, include_nat: bool = True
    ) -> list[PathElement]:
        """Instantiate the actual middlebox chain for this path.

        ``include_nat=False`` is used by the strawman experiment, which
        measures breakage from sequence-space middleboxes specifically
        (a NAT breaks the strawman trivially, for the separate §3.2
        reason that five-tuples stop identifying connections).
        """
        elements: list[PathElement] = []
        if self.has_nat and include_nat:
            elements.append(NAT(nat_ip))
        if self.strips_all_options:
            elements.append(OptionStripper(syn_only=False))
        elif self.strips_syn_options:
            elements.append(OptionStripper(syn_only=True))
        if self.rewrites_isn:
            elements.append(SequenceRewriter(rng.fork(f"isn{self.index}")))
        if self.blocks_holes:
            elements.append(HoleBlocker())
        if self.ack_mode != "pass":
            elements.append(AckCoercer(mode=self.ack_mode))
        if self.add_addr_filtered:
            elements.append(AddAddrFilter())
        return elements

    def set_class(self, behaviour: str) -> None:
        """Give the path one behaviour class and the flags it implies."""
        self.behaviour_class = behaviour
        for name, value in _CLASS_FLAGS[behaviour].items():
            setattr(self, name, value)

    def signature(self) -> tuple:
        return tuple(getattr(self, name) for name in _SIGNATURE_FIELDS)

    @classmethod
    def from_signature(cls, signature: tuple) -> "SampledPath":
        """The path a signature stands for, as path 0."""
        return cls(index=0, **dict(zip(_SIGNATURE_FIELDS, signature)))


_SIGNATURE_FIELDS = tuple(
    f.name for f in fields(SampledPath) if f.name not in ("index", "as_class")
)


def signature_label(signature: tuple) -> str:
    """A short, stable, human-greppable key for one signature."""
    path = SampledPath.from_signature(signature)
    parts = path.behaviours() or ["clean"]
    parts.append("smh" if path.server_multihomed else "cmh")
    parts.append("cv" + "".join(str(v) for v in path.client_versions))
    parts.append("sv" + "".join(str(v) for v in path.server_versions))
    parts.append(f"r{path.rate_ratio:g}")
    return "|".join(parts)


def sample_path(spec: PopulationSpec, index: int, seed: int) -> SampledPath:
    """Draw path ``index`` of the population — a pure function of
    ``(spec, index, seed)``, whatever batch asks for it."""
    rng = SeededRNG(seed, f"scale-path-{index}")
    as_class = _draw(rng, tuple((cls.weight, cls) for cls in spec.classes))
    mix = as_class.mix
    behaviour = _draw(rng, mix.class_weights())
    path = SampledPath(index=index, as_class=as_class.name)
    path.set_class(behaviour)
    path.has_nat = rng.chance(mix.nat)
    path.add_addr_filtered = rng.chance(mix.add_addr_filter)
    path.server_multihomed = rng.chance(spec.server_multihomed)
    path.client_versions = _draw(rng, spec.client_versions)
    path.server_versions = _draw(rng, spec.server_versions)
    path.rate_ratio = _draw(rng, spec.rate_tiers)
    return path


def sample_population(
    spec: PopulationSpec, count: int, seed: int, start: int = 0
) -> list[SampledPath]:
    return [sample_path(spec, index, seed) for index in range(start, start + count)]


# ----------------------------------------------------------------------
# Presets


def _paper_mix(column: int) -> BehaviourMix:
    rates = {name: counts[column] / POPULATION_SIZE for name, counts in CLASS_COUNTS.items()}
    return BehaviourMix(nat=NAT_FRACTION, **rates)


PAPER_2011 = PopulationSpec(
    name="paper2011",
    description="The paper's 2011 measurement column for non-web ports, "
    "as rates: one AS class whose mix matches class_counts/142.",
    classes=(ASClass("study-2011", 1.0, _paper_mix(0)),),
)

PAPER_2011_PORT80 = PopulationSpec(
    name="paper2011-port80",
    description="The paper's port-80 column (proxies are far more common "
    "in front of web traffic).",
    classes=(ASClass("study-2011-port80", 1.0, _paper_mix(1)),),
)

INTERNET_2021 = PopulationSpec(
    name="internet2021",
    description="A 2021-style internet: option stripping nearly gone, "
    "CGNAT everywhere on cellular, ADD_ADDR-filtering firewalls, and a "
    "v0/v1 endpoint split (modeled on Aschenbrenner et al. 2021).",
    classes=(
        ASClass(
            "residential",
            0.42,
            BehaviourMix(
                proxy=0.004,
                stripper_all=0.006,
                isn_only=0.030,
                hole_only=0.002,
                ack_drop=0.020,
                ack_correct=0.030,
                nat=0.80,
                add_addr_filter=0.10,
            ),
        ),
        ASClass(
            "cellular-cgnat",
            0.30,
            BehaviourMix(
                proxy=0.030,
                stripper_all=0.010,
                isn_only=0.050,
                hole_only=0.004,
                ack_drop=0.040,
                ack_correct=0.080,
                nat=0.97,
                add_addr_filter=0.22,
            ),
        ),
        ASClass(
            "enterprise",
            0.18,
            BehaviourMix(
                proxy=0.080,
                stripper_all=0.020,
                isn_only=0.060,
                hole_only=0.010,
                ack_drop=0.050,
                ack_correct=0.070,
                nat=0.55,
                add_addr_filter=0.30,
            ),
        ),
        ASClass(
            "datacenter",
            0.10,
            BehaviourMix(
                proxy=0.001,
                stripper_all=0.001,
                isn_only=0.004,
                ack_drop=0.004,
                ack_correct=0.004,
                nat=0.05,
                add_addr_filter=0.02,
            ),
        ),
    ),
    client_versions=((0.50, (1,)), (0.30, (0, 1)), (0.20, (0,))),
    server_versions=((0.45, (0,)), (0.35, (0, 1)), (0.20, (1,))),
    server_multihomed=0.30,
    rate_tiers=((0.20, 0.25), (0.35, 0.5), (0.35, 1.0), (0.10, 2.0)),
)

INTERNET_2022 = PopulationSpec(
    name="internet2022",
    description="A year later (Shreedhar et al. 2022): v1 adoption has "
    "moved on — most Linux clients are v1-only while legacy v0-only "
    "servers linger, so version-mismatch TCP fallbacks dominate the "
    "middlebox-caused ones.",
    classes=INTERNET_2021.classes,
    client_versions=((0.70, (1,)), (0.20, (0, 1)), (0.10, (0,))),
    server_versions=((0.25, (0,)), (0.40, (0, 1)), (0.35, (1,))),
    server_multihomed=0.35,
    rate_tiers=((0.20, 0.25), (0.35, 0.5), (0.35, 1.0), (0.10, 2.0)),
)

SPECS: dict[str, PopulationSpec] = {
    spec.name: spec for spec in (PAPER_2011, PAPER_2011_PORT80, INTERNET_2021, INTERNET_2022)
}


def paper_population(port80: bool, seed: int = 2012) -> list[SampledPath]:
    """The 142 paths of one study column, enumerated rather than
    sampled: each class's exact count lands on shuffled indices, then
    every path draws its NAT independently."""
    spec = PAPER_2011_PORT80 if port80 else PAPER_2011
    rng = SeededRNG(seed, f"study-population-{'80' if port80 else 'other'}")
    paths = [SampledPath(index=i, as_class=spec.classes[0].name) for i in range(POPULATION_SIZE)]
    order = list(range(POPULATION_SIZE))
    rng.shuffle(order)
    start = 0
    for behaviour, counts in CLASS_COUNTS.items():
        end = start + counts[1 if port80 else 0]
        for index in order[start:end]:
            paths[index].set_class(behaviour)
        start = end
    # NATs are orthogonal: residential paths mostly have one.
    for path in paths:
        path.has_nat = rng.chance(NAT_FRACTION)
    return paths


def get_spec(name: str) -> PopulationSpec:
    try:
        return SPECS[name]
    except KeyError:
        raise KeyError(f"unknown population spec {name!r}; have {sorted(SPECS)}") from None
