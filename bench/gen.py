"""Seeded input generators for the benchmark workloads.

Each generator turns a seed into `.xfo`/`.xws` text plus the plain-data
spec the oracles in `oracle.py` read. Nothing here imports `xfo`: the
program under test only ever sees the generated text.

Seeds go through `random.Random(str)`, which hashes the string with
SHA-512, so the same seed gives the same text under any PYTHONHASHSEED.
Sizes that set the amount of work (lights, horizon, rule count, catalog
size and tree shape) are fixed by the caller or by construction; the seed
only moves phases, offsets, tick jitter and which entities each statement
picks, so two seeds cost about the same to run.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

HQ = "Has_Quality"
PART = "Continuant_Part_Of"


@dataclass
class Inputs:
    model: str
    scenario: str | None
    spec: dict = field(default_factory=dict)

    @property
    def lines(self) -> int:
        return self.model.count("\n") + (self.scenario.count("\n") if self.scenario else 0)


# ----------------------------------------------------------------------
# traffic_fleet (and the history behind history_query)


@dataclass(frozen=True)
class Light:
    name: str
    green: str
    yellow: str
    red: str
    dg: int
    dy: int
    dr: int
    start: int

    @property
    def lamps(self) -> tuple[str, str, str]:
        return (self.green, self.yellow, self.red)


def traffic(seed: int, lights: int = 20, horizon: int = 400, cycle: int = 6) -> Inputs:
    """`lights` independent three-lamp lights. Every light's phases add up
    to `cycle` ticks, so each light flips 3 times per cycle whatever the
    seed; the seed picks the split and a start offset below `cycle`."""
    rng = random.Random(f"traffic:{seed}:{lights}:{horizon}")
    fleet = []
    for i in range(lights):
        dg = rng.randint(1, cycle - 2)
        dy = rng.randint(1, cycle - dg - 1)
        fleet.append(Light(
            f"light{i:03d}", f"lamp{i:03d}_g", f"lamp{i:03d}_y", f"lamp{i:03d}_r",
            dg, dy, cycle - dg - dy, rng.randrange(cycle),
        ))
    model = [
        "model TrafficFleet",
        "universal TrafficLight is_a B_Object",
        "universal Lamp is_a B_Object",
        "universal Color is_a B_Quality",
    ]
    for lt in fleet:
        model.append(f"particular {lt.name} instance_of TrafficLight")
        model.extend(f"particular {lamp} instance_of Lamp" for lamp in lt.lamps)
    model += [f"particular {c} instance_of Color" for c in ("green", "yellow", "red", "dark")]
    model += [
        f"relate Lamp {HQ} Color",
        f"relate Lamp {PART} TrafficLight",
        "mechanism trafficCycle(gl, yl, rl, dg, dy, dr) {",
        "  step turn_on {",
        "    duration 0",
        f"    effect unlink gl {HQ} dark",
        f"    effect link gl {HQ} green",
        "  }",
        "  loop until end {",
    ]
    for step, dur, off, off_c, on, on_c in (
        ("green_phase", "dg", "gl", "green", "yl", "yellow"),
        ("yellow_phase", "dy", "yl", "yellow", "rl", "red"),
        ("red_phase", "dr", "rl", "red", "gl", "green"),
    ):
        model += [
            f"    step {step} {{",
            f"      duration {dur}",
            f"      effect unlink {off} {HQ} {off_c}",
            f"      effect link {off} {HQ} dark",
            f"      effect unlink {on} {HQ} dark",
            f"      effect link {on} {HQ} {on_c}",
            "    }",
        ]
    model += ["  }", "}"]

    init = []
    for lt in fleet:
        init += [(lamp, PART, lt.name) for lamp in lt.lamps]
        init += [(lamp, HQ, "dark") for lamp in lt.lamps]
    scenario = [f"scenario fleet_{lights}x{horizon}", f"horizon {horizon}"]
    scenario += [f"init {f} {k} {t}" for f, k, t in init]
    scenario += [
        f"run trafficCycle({lt.green}, {lt.yellow}, {lt.red}, {lt.dg}, {lt.dy}, {lt.dr}) at {lt.start}"
        for lt in fleet
    ]
    return Inputs(
        "\n".join(model) + "\n", "\n".join(scenario) + "\n",
        {"lights": fleet, "horizon": horizon, "init": init},
    )


# ----------------------------------------------------------------------
# school_rules


def school(seed: int, rules: int = 20, pairs: int = 50, horizon: int = 5000) -> Inputs:
    """The school model with one vacancy rule per role. Every role starts
    staffed at tick 0; each of `pairs` vacancies ends one employment
    (`deactivate`) and later staffs the role again (`activate`). Vacancies
    sit in their own slot of the horizon, so a role's hiring run (4 ticks)
    ends before that role's next vacancy."""
    rng = random.Random(f"school:{seed}:{rules}:{pairs}:{horizon}")
    slot = (horizon - 8) // pairs
    if slot < 12:
        raise ValueError("horizon too short for the number of vacancy pairs")
    model = [
        "model SchoolRules",
        "universal Person is_a B_Object",
        "universal SchoolSystem is_a B_ObjectAggregate",
        "universal EmploymentRole is_a B_Role",
        "universal Compensation is_a B_Quality",
        "universal EmploymentTerm is_a B_Quality",
        "universal Rights is_a B_Quality",
        "universal Responsibilities is_a B_Quality",
        "universal HiringTrip is_a B_Process",
        "particular district instance_of SchoolSystem",
        "particular salary instance_of Compensation",
        "particular one_year_term instance_of EmploymentTerm",
        "particular classroom_rights instance_of Rights",
        "particular teaching_duties instance_of Responsibilities",
    ]
    for k in range(rules):
        model += [
            f"particular role{k:03d} instance_of EmploymentRole",
            f"particular recruiter{k:03d} instance_of Person",
            f"particular trip{k:03d} instance_of HiringTrip",
            f"particular teacher{k:03d}_a instance_of Person",
            f"particular teacher{k:03d}_b instance_of Person",
        ]
    model += [
        "relation Employed_By from B_Object to B_ObjectAggregate",
        "relate Person Has_Role EmploymentRole",
        "relate Person Employed_By SchoolSystem",
        "relate Person Has_Quality Compensation",
        "relate Person Has_Quality EmploymentTerm",
        "relate Person Has_Quality Rights",
        "relate Person Has_Quality Responsibilities",
        "relate Person Participates_In HiringTrip",
        "frame Employment {",
        *(f"  slot {s}" for s in ("role", "organization", "person", "compensation",
                                  "duration", "rights", "responsibilities")),
        "  link person Has_Role role",
        "  link person Employed_By organization",
        "  link person Has_Quality compensation",
        "  link person Has_Quality duration",
        "  link person Has_Quality rights",
        "  link person Has_Quality responsibilities",
        "}",
        "workflow hireReplacement(recruiter, trip) {",
        "  step board_train {",
        "    agent recruiter",
        "    duration 1",
        "    effect link recruiter Participates_In trip",
        "  }",
        "  step interview_candidates placeholder {",
        "    agent recruiter",
        "    duration 2",
        "  }",
        "  step return_with_hire {",
        "    agent recruiter",
        "    duration 1",
        "    require exists recruiter Participates_In trip",
        "    effect unlink recruiter Participates_In trip",
        "  }",
        "}",
    ]
    for k in range(rules):
        model += [
            f"rule vacancy{k:03d} {{",
            f"  when not_exists any:Person Has_Role role{k:03d}",
            f"  then start_workflow hireReplacement(recruiter{k:03d}, trip{k:03d})",
            "}",
        ]

    def binding(k: int, person: str) -> str:
        return (f"Employment(role=role{k:03d}, organization=district, person={person}, "
                "compensation=salary, duration=one_year_term, rights=classroom_rights, "
                "responsibilities=teaching_duties)")

    scenario = [f"scenario school_{rules}x{pairs}", f"horizon {horizon}"]
    scenario += [f"rule vacancy{k:03d}" for k in range(rules)]
    staffed = {k: f"teacher{k:03d}_a" for k in range(rules)}
    scenario += [f"activate {binding(k, staffed[k])} at 0" for k in range(rules)]
    order: list[int] = []
    while len(order) < pairs:
        batch = list(range(rules))
        rng.shuffle(batch)
        order += batch
    vacancies = []  # (tick, rule index)
    for j, k in enumerate(order[:pairs]):
        base = 1 + j * slot
        off = base + rng.randrange(slot // 2)
        back = off + 5 + rng.randrange(slot // 2 - 5)
        nxt = f"teacher{k:03d}_b" if staffed[k].endswith("_a") else f"teacher{k:03d}_a"
        scenario.append(f"deactivate {binding(k, staffed[k])} at {off}")
        scenario.append(f"activate {binding(k, nxt)} at {back}")
        staffed[k] = nxt
        vacancies.append((off, k))
    return Inputs(
        "\n".join(model) + "\n", "\n".join(scenario) + "\n",
        {"horizon": horizon, "vacancies": vacancies},
    )


# ----------------------------------------------------------------------
# catalog_check

_BRANCHES = (("Obj", "B_Object"), ("Qual", "B_Quality"), ("Role", "B_Role"), ("Proc", "B_Process"))
# kind -> branch of its target side; every source is an object
_KIND_TARGET = {HQ: "Qual", PART: "Obj", "Has_Role": "Role", "Participates_In": "Proc"}


def catalog(
    seed: int,
    universals: int = 2000,
    particulars: int = 4000,
    declarations: int = 1000,
    transitionals: int = 400,
    workflows: int = 100,
) -> Inputs:
    """One large model with no scenario, for `xfo check --warn-tier2` plus
    `xfo explain` on every universal.

    Planted outcomes, counted by construction rather than by running xfo:
    * warnings: templates whose source is an instance of the `Orphan`
      subtree, which no declaration mentions, so tier 2 cannot cover them;
    * errors: transitionals whose first template breaks the kind's B
      signature (tier 1), which rejects the whole statement;
    * gaps: workflow steps that require, or unlink, a fact no earlier step
      established.
    """
    rng = random.Random(f"catalog:{seed}:{universals}:{particulars}:{declarations}")
    n_orphan = universals // 20
    shares = {"Obj": 0.55, "Qual": 0.2, "Role": 0.1, "Proc": 0.1}
    parent: dict[str, str] = {}
    by_branch: dict[str, list[str]] = {b: [] for b, _ in _BRANCHES}
    orphans: list[str] = []
    out = ["model Catalog"]

    def add_universal(name: str, par: str) -> None:
        parent[name] = par
        out.append(f"universal {name} is_a {par}")

    # Each branch is a fixed-shape forest: 1 in 20 universals hang off the
    # B root, the rest fill a ternary heap below them. A fixed shape keeps
    # parent-chain walks, and so validation cost, the same for every seed.
    add_universal("Orphan", "B_Object")
    for branch, root in _BRANCHES:
        pool = by_branch[branch]
        n = int(universals * shares[branch])
        tops = max(1, n // 20)
        for i in range(n):
            name = f"{branch}{i:05d}"
            add_universal(name, root if i < tops else pool[(i - tops) // 3])
            pool.append(name)
    orphans.append("Orphan")
    for i in range(n_orphan - 1):
        name = f"Orphan{i:05d}"
        add_universal(name, orphans[i // 3])
        orphans.append(name)

    instances: dict[str, list[str]] = {b: [] for b, _ in _BRANCHES}
    orphan_ps: list[str] = []
    p_of: dict[str, str] = {}
    p_share = {"Obj": 0.7, "Qual": 0.15, "Role": 0.05, "Proc": 0.05}
    for branch, _ in _BRANCHES:
        for i in range(int(particulars * p_share[branch])):
            name = f"{branch.lower()}{i:05d}"
            p_of[name] = rng.choice(by_branch[branch])
            instances[branch].append(name)
            out.append(f"particular {name} instance_of {p_of[name]}")
    for i in range(particulars // 20):
        name = f"orphan{i:05d}"
        p_of[name] = rng.choice(orphans)
        orphan_ps.append(name)
        out.append(f"particular {name} instance_of {p_of[name]}")

    def chain(e: str) -> list[str]:
        seq = [e]
        while seq[-1] in parent:
            seq.append(parent[seq[-1]])
        return seq

    under: dict[str, list[str]] = {}  # universal -> particulars below it
    for p, u in p_of.items():
        for a in chain(u):
            under.setdefault(a, []).append(p)

    decls: list[tuple[str, str, str]] = []
    seen_decl: set = set()
    while len(decls) < declarations:
        kind = rng.choice(list(_KIND_TARGET))
        d = (rng.choice(by_branch["Obj"]), kind, rng.choice(by_branch[_KIND_TARGET[kind]]))
        if d in seen_decl or d[0] not in under or d[2] not in under:
            continue
        seen_decl.add(d)
        decls.append(d)
        out.append(f"relate {d[0]} {d[1]} {d[2]}")

    def covered() -> tuple[str, str, str]:
        f, k, t = rng.choice(decls)
        return (rng.choice(under[f]), k, rng.choice(under[t]))

    def uncovered() -> tuple[str, str, str]:
        kind = rng.choice(list(_KIND_TARGET))
        return (rng.choice(orphan_ps), kind, rng.choice(instances[_KIND_TARGET[kind]]))

    n_err = transitionals // 20
    per = 4
    slots = (transitionals - n_err) * per
    bad_slots = set(rng.sample(range(slots), slots // 5))
    templates: list[tuple[str, str, str]] = []  # every template that reaches tier 2
    warnings = 0
    slot_i = 0
    err_at = set(rng.sample(range(transitionals), n_err))
    for i in range(transitionals):
        body: list[tuple[str, str, str]] = []
        if i in err_at:
            # tier 1: a Has_Quality link whose target is an object
            body.append((rng.choice(instances["Obj"]), HQ, rng.choice(instances["Obj"])))
            while len(body) < per:
                body.append(covered())
        else:
            while len(body) < per:
                t = uncovered() if slot_i in bad_slots else covered()
                if t in body:
                    continue
                body.append(t)
                templates.append(t)
                warnings += slot_i in bad_slots
                slot_i += 1
        out.append(f"transitional tr{i:05d} {{")
        out += [f"  unlink {f} {k} {t}" for f, k, t in body[: per // 2]]
        out += [f"  link {f} {k} {t}" for f, k, t in body[per // 2:]]
        out.append("}")

    gap_plan = [1] * (workflows * 2 // 5) + [2] * (workflows // 10)
    gap_plan += [0] * (workflows - len(gap_plan))
    rng.shuffle(gap_plan)
    requires: list[tuple[str, str, str]] = []
    for w, n_gaps in enumerate(gap_plan):
        agent = rng.choice(instances["Obj"])
        facts: list[tuple[str, str, str]] = []
        while len(facts) < 6:
            t = covered()
            if t not in facts:
                facts.append(t)
        a, b, c, d, e, never = facts
        steps = [
            ("s1", [], [], [a, b]),
            ("s2", [a], [a], [c]),
            ("s3", [b, c], [], [d]),
        ]
        if n_gaps >= 1:
            steps.append(("g1", [never], [], []))
        if n_gaps >= 2:
            steps.append(("g2", [], [e], []))
        steps.append(("s4", [d], [b, c, d], []))
        out.append(f"workflow wf{w:04d} {{")
        for name, req, unl, lnk in steps[:3]:
            out += _step(name, agent, req, unl, lnk)
        out.append("  loop 2 {")
        out += ["  " + s for s in _step("l1", agent, [], [], [e])]
        out += ["  " + s for s in _step("l2", agent, [e], [e], [])]
        out.append("  }")
        for name, req, unl, lnk in steps[3:]:
            out += _step(name, agent, req, unl, lnk)
        out.append("}")
        requires += [a, b, c, d, never]

    ic = [u for u in parent if u in by_branch["Obj"] or u in orphans]
    return Inputs(
        "\n".join(out) + "\n", None,
        {
            "parent": parent,
            "universals": list(parent),
            "independent": ic,
            "declarations": decls,
            "templates": templates,
            "requires": requires,
            "particulars": list(p_of),
            "objects": instances["Obj"] + orphan_ps,
            "qualities": instances["Qual"],
            "warnings": warnings,
            "errors": n_err,
            "gaps": sum(gap_plan),
            "transitionals_ok": transitionals - n_err,
            "statements": 1 + len(parent) + len(p_of) + len(decls) + transitionals + workflows,
        },
    )


def _step(name, agent, require, unlink, link) -> list[str]:
    out = [f"  step {name} {{", f"    agent {agent}", "    duration 1"]
    out += [f"    require exists {f} {k} {t}" for f, k, t in require]
    out += [f"    effect unlink {f} {k} {t}" for f, k, t in unlink]
    out += [f"    effect link {f} {k} {t}" for f, k, t in link]
    out.append("  }")
    return out
