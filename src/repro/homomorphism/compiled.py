"""Per-plan compilation: specialized evaluators for one (component, D).

The interpreted engines re-discover the same structure on every call: the
backtracking engine re-scans relation fact lists to find consistent
facts, and the Yannakakis engine re-groups dict-of-int weight tables —
even though the planner already knows each component's shape before
evaluation.  This module *compiles* a connected component against a
structure once and reuses the artifact:

* **Fact indexes** — for every atom, a hash map from bound-variable
  prefix tuples to the candidate extensions, built in one pass over the
  relation's facts.  Runtime candidate discovery becomes one dict lookup
  instead of a fact-list scan.  Atoms with the same index shape share
  one index, and a key, extension or acyclic row that would be an equal
  copy of a whole fact is the structure's own fact tuple, so an
  artifact holds references to the database rather than a copy of it.
* **Closure chains** (cyclic components) — the chosen variable order is
  baked into a flat chain of specialized closures, one per atom, each
  hard-wired to its key slots and newly-bound slots.  No atom selection,
  no assignment dicts, no retraction bookkeeping at runtime.
* **Array-based semiring aggregation** (α-acyclic components) — the
  Yannakakis bottom-up count runs over parallel ``array('q')`` weight
  columns with precomputed group ids per join pass, instead of
  dict-of-int message tables.  Counts that overflow 64-bit storage
  transparently re-run on plain Python ``int`` columns
  (``compiled.overflow_fallbacks``), so results stay exact.

Both check the installed deadline (:mod:`repro.deadline`): a chain
every ``CHECK_EVERY`` candidate bindings, Yannakakis once per pass.

Artifacts are cached in the planner's :class:`~repro.planner.analyze.
PlanCache` keyed by ``(canonical component, fingerprint)`` — α-equivalent
components on the same database share one compilation, exactly as their
counts share one evaluation in
:class:`~repro.homomorphism.cache.CountCache` — so warm service traffic
pays the compile once.

**Totality.**  :func:`count_homomorphisms_compiled` never raises where
the backtracking engine would not: components outside the specializer's
envelope (inequalities, uninterpreted constants, arity mismatches — see
:func:`compiled_supported`, mirrored by the planner's eligibility gates)
fall back to the interpreter, which raises exactly the interpreter's
error classes.  ``engine="compiled"`` is therefore a drop-in for the
default engine on *every* input, and the qa ``cross_engine`` oracle
enforces bit-identity differentially.
"""

from __future__ import annotations

from array import array
from typing import Callable, Hashable

from repro.deadline import CHECK_EVERY, check
from repro.errors import BagCQError, DeadlineExpired
from repro.homomorphism.acyclic import join_tree, matching_facts
from repro.homomorphism.backtracking import count_homomorphisms, ensure_stack_for
from repro.obs import metrics as obs_metrics
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Variable
from repro.relational.structure import Structure

__all__ = [
    "CompiledComponent",
    "compile_component",
    "compiled_supported",
    "count_homomorphisms_compiled",
    "refresh_component",
]

Element = Hashable


def compiled_supported(query: ConjunctiveQuery, structure: Structure) -> bool:
    """Is the component inside the specializer's envelope?

    The gates mirror :func:`repro.planner.cost.eligible_engines` (and the
    Yannakakis counter's preconditions, minus GYO-reducibility — the
    compiler handles cyclic shapes through the closure chain):

    * no inequalities — the index keys and closure chains assume pure
      relational joins;
    * every constant interpreted by the structure — the interpreter
      raises :class:`~repro.errors.ConstantError` here, and the fallback
      must preserve that class;
    * atom arities matching the structure's schema — ditto for
      :class:`~repro.errors.EvaluationError`.

    Outside the envelope :func:`count_homomorphisms_compiled` falls back
    to the interpreter rather than erroring.
    """
    if query.inequalities:
        return False
    for constant in query.constants:
        if not structure.interprets(constant.name):
            return False
    for atom in query.atoms:
        if (
            atom.relation in structure.schema
            and structure.schema.arity(atom.relation) != atom.arity
        ):
            return False
    return True


def _facts_of(structure: Structure, relation: str) -> tuple[tuple, ...]:
    """The relation's facts, with missing relations interpreted as empty."""
    if relation not in structure.schema:
        return ()
    return tuple(structure.facts(relation))


class CompiledComponent:
    """One compiled evaluator: ``run()`` returns the exact count.

    ``mode`` records which specialization was selected (``"acyclic"`` for
    the array-semiring Yannakakis pass, ``"chain"`` for the baked
    backtracking closure chain) and ``indexed_facts`` how many facts the
    compile pass indexed — both surfaced through the ``compiled.*``
    observability counters and useful in tests.

    ``refresh(old_structure, new_structure, delta)`` produces a new
    artifact for ``new_structure``, which must be ``old_structure`` — the
    structure the artifact was compiled or last refreshed for — with
    ``delta`` applied (same schema, same constants): per-relation fact
    indexes of untouched relations are shared, touched chain indexes are
    patched in O(|delta|), and only join passes adjacent to a touched
    relation are regrouped.  The artifact keeps no reference to either
    structure.  The original artifact is never mutated, so a caller still
    running it gets the old version's exact count; delta evaluation drops
    it from the store once the refreshed one is stored, as it does for
    superseded counts.
    """

    __slots__ = ("mode", "indexed_facts", "_run", "_refresh")

    def __init__(
        self,
        mode: str,
        indexed_facts: int,
        run: Callable[[], int],
        refresh: Callable[..., "CompiledComponent"] | None = None,
    ) -> None:
        self.mode = mode
        self.indexed_facts = indexed_facts
        self._run = run
        self._refresh = refresh

    def run(self) -> int:
        return self._run()

    def refresh(
        self, old_structure: Structure, structure: Structure, delta
    ) -> "CompiledComponent | None":
        """An equivalent artifact for ``structure``, or ``None``.

        ``structure`` must be ``old_structure`` — the artifact's compiled
        structure — with ``delta`` applied.  Returns ``None`` when the
        artifact does not support incremental refresh (callers then
        recompile from scratch).
        """
        if self._refresh is None:
            return None
        return self._refresh(old_structure, structure, delta)

    def __repr__(self) -> str:
        return (
            f"CompiledComponent(mode={self.mode!r}, "
            f"indexed_facts={self.indexed_facts})"
        )


# -- acyclic components: array-based semiring aggregation ---------------------


def _atom_rows(
    atom, structure: Structure
) -> tuple[tuple[Variable, ...], list[tuple]]:
    """``(variable order, rows)``: one value tuple per consistent fact.

    The variable order is the atom's first-occurrence order; each row
    holds the binding's values in that order.  Consistency (constants,
    repeated-variable positions) is discharged at compile time by the
    Yannakakis counter's :func:`~repro.homomorphism.acyclic.matching_facts`.
    When every term is a distinct variable, every fact is consistent and
    is its own row, so the rows are the structure's fact tuples.
    """
    variables: list[Variable] = []
    seen: set[Variable] = set()
    for term in atom.terms:
        if not isinstance(term, Constant) and term not in seen:
            seen.add(term)
            variables.append(term)
    order = tuple(variables)
    if len(order) == len(atom.terms):
        return order, list(_facts_of(structure, atom.relation))
    rows = [
        tuple(binding[variable] for variable in order)
        for binding, _ in matching_facts(atom, structure)
    ]
    return order, rows


def _int_column(length: int, fill: int) -> list[int]:
    return [fill] * length


def _machine_column(length: int, fill: int):
    return array("q", [fill]) * length if length else array("q")


def _compile_acyclic(
    query: ConjunctiveQuery,
    structure: Structure,
    tree: list[tuple[int, int | None]],
    prior: tuple | None = None,
    touched: frozenset[str] = frozenset(),
) -> CompiledComponent:
    """Yannakakis counting with all grouping resolved at compile time.

    Every bottom-up join pass is reduced to two precomputed group-id
    vectors: child row → accumulator slot, parent row → accumulator slot
    (or ``-1`` when the parent's separator binding matches no child row).
    The runtime is then pure array arithmetic — scatter-add the child
    weights, multiply them into the parent — over whichever column type
    the counts fit in.

    ``prior`` (a previous compile's ``(var_orders, all_rows, passes)``)
    with ``touched`` enables incremental refresh: atoms of untouched
    relations reuse their row tables, and passes whose endpoints are both
    untouched reuse their group vectors verbatim.
    """
    atoms = list(query.atoms)
    prior_rows = prior[1] if prior is not None else None
    prior_passes = (
        {(p[0], p[1]): p for p in prior[2]} if prior is not None else {}
    )
    var_orders: list[tuple[Variable, ...]] = []
    all_rows: list[list[tuple]] = []
    indexed = 0
    for position, atom in enumerate(atoms):
        if prior_rows is not None and atom.relation not in touched:
            order = prior[0][position]
            rows = prior_rows[position]
        else:
            order, rows = _atom_rows(atom, structure)
            if prior_rows is not None:
                obs_metrics.add("compiled.index_refreshes")
        var_orders.append(order)
        all_rows.append(rows)
        indexed += len(rows)

    #: Per pass: (child, parent, child_groups, parent_groups, group_count).
    passes: list[tuple[int, int, array, array, int]] = []
    root = tree[-1][0] if tree else None
    for index, parent in tree:
        if parent is None:
            root = index
            continue
        if (
            prior_rows is not None
            and atoms[index].relation not in touched
            and atoms[parent].relation not in touched
            and (index, parent) in prior_passes
        ):
            passes.append(prior_passes[(index, parent)])
            continue
        separator = sorted(
            set(var_orders[index]) & set(var_orders[parent]),
            key=lambda variable: variable.name,
        )
        child_take = tuple(var_orders[index].index(v) for v in separator)
        parent_take = tuple(var_orders[parent].index(v) for v in separator)
        groups: dict[tuple, int] = {}
        child_groups = array("l")
        for row in all_rows[index]:
            key = tuple(row[position] for position in child_take)
            child_groups.append(groups.setdefault(key, len(groups)))
        parent_groups = array("l")
        for row in all_rows[parent]:
            key = tuple(row[position] for position in parent_take)
            parent_groups.append(groups.get(key, -1))
        passes.append((index, parent, child_groups, parent_groups, len(groups)))

    row_counts = tuple(len(rows) for rows in all_rows)
    atom_variables: set[Variable] = set()
    for order in var_orders:
        atom_variables.update(order)
    free = len(query.variables - atom_variables)
    domain_size = len(structure.domain)

    def execute(make_column) -> int:
        weights = [make_column(count, 1) for count in row_counts]
        for child, parent, child_groups, parent_groups, group_count in passes:
            check()
            acc = make_column(group_count, 0)
            for group, weight in zip(child_groups, weights[child]):
                acc[group] += weight
            parent_weights = weights[parent]
            for position, group in enumerate(parent_groups):
                parent_weights[position] = (
                    parent_weights[position] * acc[group] if group >= 0 else 0
                )
        if root is None:
            return 1
        return sum(weights[root])

    def run() -> int:
        try:
            total = execute(_machine_column)
        except OverflowError:
            # Counts outgrew 64-bit columns; re-run on exact int columns.
            obs_metrics.add("compiled.overflow_fallbacks")
            total = execute(_int_column)
        if total == 0:
            return 0
        return total * domain_size**free

    state = (tuple(var_orders), tuple(all_rows), tuple(passes))

    def refresh(
        old_structure: Structure, new_structure: Structure, delta
    ) -> CompiledComponent:
        return _compile_acyclic(
            query, new_structure, tree, state, delta.touched_relations()
        )

    return CompiledComponent("acyclic", indexed, run, refresh)


# -- cyclic components: baked closure chains ----------------------------------


def _order_atoms(query: ConjunctiveQuery, structure: Structure) -> list:
    """A static join order: connected-first, small relations early.

    A greedy stand-in for the interpreter's dynamic fail-first selection:
    start from the atom with the fewest facts, then repeatedly take the
    atom with the most already-bound variables (maximally constrained ⇒
    smallest candidate buckets), breaking ties towards smaller relations
    and finally towards the query's stored atom order, which keeps the
    choice deterministic across α-equivalent copies.
    """
    remaining = list(range(len(query.atoms)))
    atoms = list(query.atoms)
    fact_counts = [len(_facts_of(structure, atom.relation)) for atom in atoms]
    atom_vars = [set(atom.variables()) for atom in atoms]
    bound: set[Variable] = set()
    order: list[int] = []
    while remaining:
        best = min(
            remaining,
            key=lambda index: (
                -len(atom_vars[index] & bound),
                fact_counts[index],
                index,
            ),
        )
        remaining.remove(best)
        bound |= atom_vars[best]
        order.append(best)
    return [atoms[index] for index in order]


#: One chain atom's compiled index plus the position metadata needed to
#: patch it incrementally: ``(key_positions, checks, duplicates, take,
#: key_slots, new_slots, index)``.  The first four fields, with the
#: atom's relation, are the index's *shape*: atoms of one chain with the
#: same shape have equal indexes and share one.
_ChainSpec = tuple


def _chain_layout(
    atom,
    structure: Structure,
    slot_of: dict[Variable, int],
) -> tuple:
    """The :data:`_ChainSpec` of one atom in the chain, minus its index.

    Assigns slots to the atom's newly-bound variables in ``slot_of``.
    Constants (``checks``) and repeated new variables (``duplicates``)
    are filters discharged when the index is built.
    """
    key_positions: list[int] = []
    key_slots: list[int] = []
    checks: list[tuple[int, Element]] = []
    duplicates: list[tuple[int, int]] = []
    new_first: dict[Variable, int] = {}
    new_variables: list[Variable] = []
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            checks.append((position, structure.interpret(term.name)))
        elif term in slot_of:
            key_positions.append(position)
            key_slots.append(slot_of[term])
        elif term in new_first:
            duplicates.append((new_first[term], position))
        else:
            new_first[term] = position
            new_variables.append(term)
    for variable in new_variables:
        slot_of[variable] = len(slot_of)
    new_slots = tuple(slot_of[variable] for variable in new_variables)
    take = tuple(new_first[variable] for variable in new_variables)
    return (
        tuple(key_positions),
        tuple(checks),
        tuple(duplicates),
        take,
        tuple(key_slots),
        new_slots,
    )


def _fact_entry(spec: _ChainSpec, fact: tuple) -> tuple | None:
    """``(key, value)`` for a fact passing the spec's filters, else None.

    A key or value covering every position of the fact *is* the fact, so
    indexes built from a structure reference its fact tuples instead of
    holding equal copies.
    """
    key_positions, checks, duplicates, take = spec[0], spec[1], spec[2], spec[3]
    if any(fact[position] != value for position, value in checks):
        return None
    if any(fact[i] != fact[j] for i, j in duplicates):
        return None
    if len(key_positions) == len(fact):
        key = fact
    else:
        key = tuple(fact[position] for position in key_positions)
    if len(take) == 1:
        return key, fact[take[0]]
    if len(take) == len(fact):
        return key, fact
    return key, tuple(fact[position] for position in take)


def _build_index(relation: str, layout: tuple, structure: Structure) -> dict:
    """The index of a :func:`_chain_layout`: bound values → extensions.

    Maps a tuple of already-bound values (at the key positions, in
    position order) to the candidate extensions: the values the atom's
    newly-bound variables take, one entry per consistent fact.
    """
    index: dict = {}
    for fact in _facts_of(structure, relation):
        entry = _fact_entry(layout, fact)
        if entry is not None:
            index.setdefault(entry[0], []).append(entry[1])
    return index


def _patched_index(spec: _ChainSpec, adds, removes) -> tuple[dict, int]:
    """A copy of the spec's index with ``adds``/``removes`` applied.

    ``adds`` and ``removes`` must be the *effective* fact changes (adds
    absent before, removes present before).  Copy-on-write per bucket:
    the input index is never mutated, because the artifact it belongs to
    may still be running in another thread.  Returns the patched index
    and the net change in indexed entries.
    """
    index = spec[6]
    new_index = dict(index)
    touched_keys: set = set()

    def bucket(key) -> list:
        if key not in touched_keys:
            new_index[key] = list(new_index.get(key, ()))
            touched_keys.add(key)
        return new_index[key]

    net = 0
    for fact in adds:
        entry = _fact_entry(spec, fact)
        if entry is None:
            continue
        key, value = entry
        bucket(key).append(value)
        net += 1
    for fact in removes:
        entry = _fact_entry(spec, fact)
        if entry is None:
            continue
        key, value = entry
        values = bucket(key)
        values.remove(value)
        net -= 1
        if not values:
            del new_index[key]
    return new_index, net


def _refill() -> int:
    """Check the deadline, then grant a chain its next work budget."""
    check()
    return CHECK_EVERY


def _make_step(
    key_slots: tuple[int, ...],
    new_slots: tuple[int, ...],
    index: dict,
    private: bool,
    after: Callable,
    budget: int,
) -> Callable:
    """One specialized closure of the chain, hard-wired to its slots.

    The common small shapes get dedicated bodies (scalar keys, single
    new variable, fully-bound membership checks); everything else runs
    the generic tuple path.  ``private`` atoms — whose new variables
    occur in no later atom — contribute the *size* of their candidate
    bucket instead of being enumerated, mirroring the interpreter's
    private-variable counting.

    An enumerating step charges its bucket's size to the run's work
    budget in ``env[budget]`` and checks the deadline when the budget
    runs out, so every :data:`~repro.deadline.CHECK_EVERY` candidate
    bindings at any depth cost one check.  The other steps do O(1) work
    per binding an enumerating step (or the chain's start) made.
    """
    if not new_slots:
        # Membership check: every position bound (or constant); the
        # bucket is empty or a singleton by fact-set uniqueness.
        if len(key_slots) == 1:
            slot = key_slots[0]

            def step(env, _index=index, _after=after, _slot=slot):
                return _after(env) if (env[_slot],) in _index else 0

        else:

            def step(env, _index=index, _after=after, _slots=key_slots):
                return (
                    _after(env)
                    if tuple(env[slot] for slot in _slots) in _index
                    else 0
                )

        return step
    if private:
        counts = {key: len(bucket) for key, bucket in index.items()}
        if not key_slots:
            factor = counts.get((), 0)

            def step(env, _factor=factor, _after=after):
                return _factor * _after(env) if _factor else 0

        elif len(key_slots) == 1:
            slot = key_slots[0]

            def step(env, _counts=counts, _after=after, _slot=slot):
                factor = _counts.get((env[_slot],), 0)
                return factor * _after(env) if factor else 0

        else:

            def step(env, _counts=counts, _after=after, _slots=key_slots):
                factor = _counts.get(tuple(env[slot] for slot in _slots), 0)
                return factor * _after(env) if factor else 0

        return step
    if len(new_slots) == 1:
        write = new_slots[0]
        if not key_slots:
            bucket = index.get((), ())

            def step(
                env,
                _bucket=bucket,
                _after=after,
                _write=write,
                _budget=budget,
                _size=len(bucket),
            ):
                left = env[_budget] - _size
                env[_budget] = left if left > 0 else _refill()
                total = 0
                for value in _bucket:
                    env[_write] = value
                    total += _after(env)
                return total

        elif len(key_slots) == 1:
            slot = key_slots[0]

            def step(
                env,
                _index=index,
                _after=after,
                _slot=slot,
                _write=write,
                _budget=budget,
            ):
                bucket = _index.get((env[_slot],))
                if bucket is None:
                    return 0
                left = env[_budget] - len(bucket)
                env[_budget] = left if left > 0 else _refill()
                total = 0
                for value in bucket:
                    env[_write] = value
                    total += _after(env)
                return total

        else:

            def step(
                env,
                _index=index,
                _after=after,
                _slots=key_slots,
                _write=write,
                _budget=budget,
            ):
                bucket = _index.get(tuple(env[slot] for slot in _slots))
                if bucket is None:
                    return 0
                left = env[_budget] - len(bucket)
                env[_budget] = left if left > 0 else _refill()
                total = 0
                for value in bucket:
                    env[_write] = value
                    total += _after(env)
                return total

        return step

    def step(
        env,
        _index=index,
        _after=after,
        _slots=key_slots,
        _writes=new_slots,
        _budget=budget,
    ):
        bucket = _index.get(tuple(env[slot] for slot in _slots))
        if bucket is None:
            return 0
        left = env[_budget] - len(bucket)
        env[_budget] = left if left > 0 else _refill()
        total = 0
        for values in bucket:
            for write, value in zip(_writes, values):
                env[write] = value
            total += _after(env)
        return total

    return step


def _effective_changes(
    structure: Structure, relation: str, delta
) -> tuple[set, set]:
    """``(adds, removes)`` the delta actually performs on one relation.

    Mirrors :meth:`Structure.apply_delta`'s lenient semantics in
    O(|delta|): inserts of present facts and deletes of absent facts drop
    out, and a fact both inserted and deleted ends up deleted.
    """
    raw_inserts = {
        tuple(values) for name, values in delta.inserts if name == relation
    }
    raw_deletes = {
        tuple(values) for name, values in delta.deletes if name == relation
    }
    adds = {
        fact
        for fact in raw_inserts - raw_deletes
        if not structure.has_fact(relation, fact)
    }
    removes = {
        fact for fact in raw_deletes if structure.has_fact(relation, fact)
    }
    return adds, removes


def _compile_chain(
    query: ConjunctiveQuery, structure: Structure
) -> CompiledComponent:
    """The baked backtracking chain for a (cyclic) component.

    Each distinct index shape is built once and shared by every atom of
    that shape; ``indexed_facts`` still counts the entries per atom.
    """
    ordered = _order_atoms(query, structure)
    slot_of: dict[Variable, int] = {}
    specs: list[_ChainSpec] = []
    indexes: dict[tuple, dict] = {}
    indexed = 0
    for atom in ordered:
        layout = _chain_layout(atom, structure, slot_of)
        shape = (atom.relation,) + layout[:4]
        index = indexes.get(shape)
        if index is None:
            index = indexes[shape] = _build_index(atom.relation, layout, structure)
        specs.append(layout + (index,))
        indexed += sum(len(bucket) for bucket in index.values())
    return _assemble_chain(
        query,
        tuple(ordered),
        tuple(specs),
        len(slot_of),
        len(structure.domain),
        indexed,
    )


def _assemble_chain(
    query: ConjunctiveQuery,
    ordered: tuple,
    specs: tuple,
    slots: int,
    domain_size: int,
    indexed: int,
) -> CompiledComponent:
    """Fold prebuilt per-atom specs into a runnable closure chain.

    Shared by :func:`_compile_chain` (fresh specs) and incremental
    refresh (patched specs): the closures themselves are cheap to remake;
    the fact indexes inside the specs are the expensive part.
    """
    # An atom is private when its new slots are read by no later step.
    privacy: list[bool] = [False] * len(specs)
    later_reads: set[int] = set()
    for position in range(len(specs) - 1, -1, -1):
        key_slots, new_slots = specs[position][4], specs[position][5]
        privacy[position] = not (set(new_slots) & later_reads)
        later_reads.update(key_slots)

    chain: Callable = lambda env: 1  # noqa: E731 — the chain's terminal
    for position in range(len(specs) - 1, -1, -1):
        key_slots, new_slots, index = (
            specs[position][4],
            specs[position][5],
            specs[position][6],
        )
        chain = _make_step(
            key_slots, new_slots, index, privacy[position], chain, slots
        )

    free = len(query.variables) - slots
    first = chain

    def run() -> int:
        # One slot per variable, then the run's work budget.
        env = [None] * (slots + 1)
        env[slots] = CHECK_EVERY
        total = first(env)
        if total == 0:
            return 0
        return total * domain_size**free

    def refresh(
        old_structure: Structure, new_structure: Structure, delta
    ) -> CompiledComponent:
        touched = delta.touched_relations()
        changes = {
            relation: _effective_changes(old_structure, relation, delta)
            for relation in touched
        }
        # Patch each shared index once, so the sharing survives updates.
        patched: dict[tuple, tuple[dict, int]] = {}
        new_specs: list[_ChainSpec] = []
        new_indexed = indexed
        for atom, spec in zip(ordered, specs):
            if atom.relation in touched:
                shape = (atom.relation,) + spec[:4]
                if shape not in patched:
                    adds, removes = changes[atom.relation]
                    patched[shape] = _patched_index(spec, adds, removes)
                    obs_metrics.add("compiled.index_refreshes")
                index, net = patched[shape]
                spec = spec[:6] + (index,)
                new_indexed += net
            new_specs.append(spec)
        return _assemble_chain(
            query,
            ordered,
            tuple(new_specs),
            slots,
            len(new_structure.domain),
            new_indexed,
        )

    return CompiledComponent("chain", indexed, run, refresh)


# -- the public engine --------------------------------------------------------


def compile_component(
    query: ConjunctiveQuery, structure: Structure
) -> CompiledComponent:
    """Compile one supported component against one structure.

    Picks the array-semiring Yannakakis evaluator for α-acyclic shapes
    and the closure chain otherwise.  Callers are expected to have
    checked :func:`compiled_supported`; this function assumes the
    envelope holds.
    """
    obs_metrics.add("plan.compile.builds")
    tree = join_tree(query)
    if tree is not None:
        artifact = _compile_acyclic(query, structure, tree)
    else:
        artifact = _compile_chain(query, structure)
    obs_metrics.add("compiled.indexed_facts", artifact.indexed_facts)
    return artifact


def refresh_component(
    artifact: CompiledComponent,
    old_structure: Structure,
    structure: Structure,
    delta,
) -> CompiledComponent | None:
    """Incrementally re-target an artifact at a mutated database.

    ``structure`` must be ``old_structure`` — the artifact's compiled
    structure — with ``delta`` applied (same schema, same constants —
    exactly what :meth:`Structure.apply_delta` guarantees).  Untouched
    per-relation indexes are shared between old and new artifact; touched
    chain indexes are patched in O(|delta|); only acyclic join passes
    adjacent to a touched relation are regrouped.  Returns ``None`` when the
    artifact predates refresh support — or when refreshing raises (e.g.
    the artifact's constants are not interpreted by ``structure``, which
    can happen when fingerprint coincidence misattributes an artifact to
    this database) — so callers fall back to recompiling on the next
    miss.  Successful refreshes count as ``compiled.artifact_refreshes``.
    """
    try:
        refreshed = artifact.refresh(old_structure, structure, delta)
    except BagCQError:
        return None
    if refreshed is not None:
        obs_metrics.add("compiled.artifact_refreshes")
    return refreshed


def count_homomorphisms_compiled(
    query: ConjunctiveQuery, structure: Structure
) -> int:
    """``φ(D)`` via a compiled per-component evaluator.

    Bit-identical to :func:`~repro.homomorphism.backtracking.
    count_homomorphisms` on every input: supported components run the
    compiled artifact (cached across calls in the planner's
    :class:`~repro.planner.analyze.PlanCache`), everything else falls
    back to the interpreter — same counts, same error classes.

    A run stopped at its deadline (:mod:`repro.deadline`) takes the
    artifact it built out of the store again, unless another lookup has
    reused it meanwhile: nobody waits for its count.
    """
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.counter("compiled.calls").inc()
    if not compiled_supported(query, structure):
        if registry is not None:
            registry.counter("compiled.fallbacks").inc()
        return count_homomorphisms(query, structure)
    ensure_stack_for(query)
    from repro.planner.plan import default_plan_cache

    plan_cache = default_plan_cache()
    artifact, was_hit = plan_cache.compiled_artifact(
        query, structure, compile_component
    )
    if registry is not None:
        registry.counter(f"compiled.{artifact.mode}_runs").inc()
        if was_hit:
            registry.counter("compiled.artifact_reuses").inc()
    try:
        return artifact.run()
    except DeadlineExpired:
        if not was_hit:
            plan_cache.artifacts.discard_probation(artifact)
        raise
