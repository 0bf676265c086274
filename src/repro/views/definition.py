"""Indexed view definitions.

Three view shapes cover the paper's territory:

* :class:`AggregateView` — ``SELECT g1.., COUNT(*), SUM(x).. FROM base
  [WHERE p] GROUP BY g1..`` stored in a B-tree keyed by the group-by
  columns. This is *the* interesting case: many base rows collapse into
  one view row, concentrating write traffic — the reason escrow locking
  exists. A COUNT(*) aggregate is mandatory (as in SQL Server), because
  maintenance needs it to detect empty groups.

* :class:`JoinView` — ``SELECT .. FROM left JOIN right ON left.fk =
  right.pk [WHERE p]`` keyed by (left pk, right pk). The right side must
  be joined on its primary key (the common foreign-key join); this keeps
  maintenance index-driven rather than scan-driven.

* :class:`ProjectionView` — ``SELECT cols FROM base WHERE p`` keyed by the
  base primary key; the simplest case, included as the baseline shape and
  for predicate enter/leave testing.

Definitions are immutable descriptions; all machinery lives in the
maintainers.
"""

from repro.common import CatalogError
from repro.query.aggregates import AggFunc


def is_aggregate_kind(view):
    """True for views whose rows are escrow-counter groups with COUNT
    semantics (plain aggregate views and join-aggregate views)."""
    return view.kind in ("aggregate", "join_aggregate")


class ViewDefinition:
    """Common shape of a view definition."""

    kind = "abstract"

    def __init__(self, name, key_columns, columns, where=None):
        self.name = name
        self.key_columns = tuple(key_columns)
        self.columns = tuple(columns)
        self.where = where
        # Registration flags, normalized by Database.create_view: every
        # view index is keyed uniquely by construction (``unique``), and
        # ``deferred`` routes this view's maintenance through the
        # deferred maintainer regardless of the global maintenance_mode.
        self.unique = True
        self.deferred = False
        missing = [c for c in self.key_columns if c not in self.columns]
        if missing:
            raise CatalogError(
                f"view {name!r}: key columns {missing!r} not in columns"
            )

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r}, key={self.key_columns!r})"

    def base_tables(self):
        raise NotImplementedError

    def declared_keys(self):
        """``(table, primary_key)`` pairs the definition was built with;
        :meth:`Catalog.add_view` checks them against the tables."""
        return ()

    def key_of(self, row):
        """The view-index key of a view row."""
        return tuple(row[c] for c in self.key_columns)


class AggregateView(ViewDefinition):
    """A GROUP BY view with COUNT/SUM aggregates."""

    kind = "aggregate"

    def __init__(self, name, base, group_by, aggregates, where=None, bounds=None):
        """``bounds`` maps an aggregate output column to ``(low, high)``
        limits (either end may be None). The escrow test enforces them
        under *every* possible outcome of in-flight transactions — a
        declarative business rule ("branch totals never below reserve")
        with no read-validate cycle and no cascading aborts. COUNT(*)
        always has an implicit low bound of 0.
        """
        if not group_by:
            raise CatalogError(f"view {name!r}: GROUP BY must not be empty")
        aggregates = tuple(aggregates)
        count_specs = [a for a in aggregates if a.func is AggFunc.COUNT]
        if not count_specs:
            raise CatalogError(
                f"view {name!r}: an aggregate view requires a COUNT(*) "
                "column (it detects empty groups, as in SQL Server)"
            )
        out_names = [a.out for a in aggregates]
        if len(set(out_names)) != len(out_names):
            raise CatalogError(f"view {name!r}: duplicate aggregate columns")
        clash = set(out_names) & set(group_by)
        if clash:
            raise CatalogError(
                f"view {name!r}: aggregate columns {sorted(clash)!r} clash "
                "with group-by columns"
            )
        columns = tuple(group_by) + tuple(out_names)
        super().__init__(name, group_by, columns, where)
        self.base = base
        self.group_by = tuple(group_by)
        self.aggregates = aggregates
        self.count_column = count_specs[0].out
        self.counter_specs = tuple(a for a in aggregates if not a.is_extreme())
        self.extreme_specs = tuple(a for a in aggregates if a.is_extreme())
        self.bounds = dict(bounds or {})
        unknown_bounds = [c for c in self.bounds if c not in out_names]
        if unknown_bounds:
            raise CatalogError(
                f"view {name!r}: bounds on unknown columns {unknown_bounds!r}"
            )

    def bounds_for(self, column):
        """The (low, high) escrow bounds of ``column``; COUNT(*) gets an
        implicit ``low=0``."""
        low, high = self.bounds.get(column, (None, None))
        if column == self.count_column:
            low = 0 if low is None else max(low, 0)
        return low, high

    def base_tables(self):
        return (self.base,)

    def has_extremes(self):
        """True if the view carries MIN/MAX columns — which forces
        exclusive (non-escrow) maintenance of its rows and delete-time
        group rescans. This is the extension beyond SQL Server's indexed
        views; see :mod:`repro.query.aggregates`."""
        return bool(self.extreme_specs)

    def counter_columns(self):
        """Columns maintained as escrow counters (COUNT/SUM only)."""
        return tuple(a.out for a in self.counter_specs)

    def extreme_columns(self):
        return tuple(a.out for a in self.extreme_specs)

    def group_key_of_base_row(self, base_row):
        return tuple(base_row[c] for c in self.group_by)

    def relevant(self, base_row):
        """True if ``base_row`` contributes to the view."""
        return self.where is None or self.where(base_row)

    def deltas_for(self, base_row, sign):
        """Counter deltas contributed by a base row, or ``None`` when the
        row is filtered out. ``sign`` is +1 (insert) or -1 (delete).
        Extreme (MIN/MAX) columns are not deltas and are handled by the
        maintainer separately."""
        if not self.relevant(base_row):
            return None
        return {a.out: a.delta_for(base_row, sign) for a in self.counter_specs}

    def zero_row(self, group_key):
        """A fresh view row for a new group, all counters zero."""
        from repro.common.rows import Row

        values = dict(zip(self.group_by, group_key))
        for spec in self.aggregates:
            values[spec.out] = spec.initial_value()
        return Row(values)


class JoinView(ViewDefinition):
    """A two-table foreign-key join view."""

    kind = "join"

    def __init__(self, name, left, right, on, left_pk, right_pk,
                 columns=None, where=None):
        """``on`` is a sequence of (left_col, right_col) pairs, where every
        right column must be part of the right table's primary key.

        ``left_pk`` / ``right_pk`` are the base tables' primary-key
        columns (the catalog wires them in; they name columns of the
        *joined* row, so they must survive projection).
        """
        self.left = left
        self.right = right
        self.on = tuple(on)
        self.left_pk = tuple(left_pk)
        self.right_pk = tuple(right_pk)
        if not self.on:
            raise CatalogError(f"view {name!r}: join needs ON pairs")
        right_on = [rc for _, rc in self.on]
        if set(right_on) != set(self.right_pk):
            raise CatalogError(
                f"view {name!r}: the right side must be joined on exactly "
                f"its primary key {self.right_pk!r}, got {right_on!r}"
            )
        key_columns = self.left_pk + tuple(
            c for c in self.right_pk if c not in self.left_pk
        )
        if columns is None:
            raise CatalogError(
                f"view {name!r}: list the projected columns explicitly"
            )
        columns = tuple(columns)
        missing = [c for c in key_columns if c not in columns]
        if missing:
            raise CatalogError(
                f"view {name!r}: projected columns must include the view "
                f"key columns {missing!r}"
            )
        super().__init__(name, key_columns, columns, where)
        self.name = name

    def base_tables(self):
        return (self.left, self.right)

    def declared_keys(self):
        return ((self.left, self.left_pk), (self.right, self.right_pk))

    def left_fk_of(self, left_row):
        """The right-table key matched by a left row."""
        return tuple(left_row[lc] for lc, _ in self.on)

    def relevant(self, joined_row):
        return self.where is None or self.where(joined_row)


class JoinAggregateView(ViewDefinition):
    """``SELECT g.., COUNT(*), SUM(x).. FROM left JOIN right ON left.fk =
    right.pk [WHERE p] GROUP BY g..`` — the canonical SQL Server indexed
    view shape, composing the join and aggregate machinery.

    Group-by columns and aggregate sources name columns of the *joined*
    row. Only COUNT/SUM are allowed (the escrow-maintainable functions);
    the view row itself is maintained exactly like a plain aggregate
    view's — including escrow locking — with contributions computed from
    joined rows.
    """

    kind = "join_aggregate"

    def __init__(self, name, left, right, on, left_pk, right_pk, group_by,
                 aggregates, where=None, bounds=None):
        if not group_by:
            raise CatalogError(f"view {name!r}: GROUP BY must not be empty")
        aggregates = tuple(aggregates)
        if any(a.is_extreme() for a in aggregates):
            raise CatalogError(
                f"view {name!r}: MIN/MAX are not supported over joins "
                "(only the delta-maintainable COUNT/SUM are)"
            )
        count_specs = [a for a in aggregates if a.func is AggFunc.COUNT]
        if not count_specs:
            raise CatalogError(
                f"view {name!r}: a COUNT(*) column is required"
            )
        out_names = [a.out for a in aggregates]
        if len(set(out_names)) != len(out_names):
            raise CatalogError(f"view {name!r}: duplicate aggregate columns")
        clash = set(out_names) & set(group_by)
        if clash:
            raise CatalogError(
                f"view {name!r}: aggregate columns {sorted(clash)!r} clash "
                "with group-by columns"
            )
        self.left = left
        self.right = right
        self.on = tuple(on)
        self.left_pk = tuple(left_pk)
        self.right_pk = tuple(right_pk)
        right_on = [rc for _, rc in self.on]
        if set(right_on) != set(self.right_pk):
            raise CatalogError(
                f"view {name!r}: the right side must be joined on exactly "
                f"its primary key {self.right_pk!r}, got {right_on!r}"
            )
        columns = tuple(group_by) + tuple(out_names)
        super().__init__(name, tuple(group_by), columns, where)
        self.group_by = tuple(group_by)
        self.aggregates = aggregates
        self.count_column = count_specs[0].out
        self.counter_specs = aggregates  # all are counters (no extremes)
        self.extreme_specs = ()
        self.bounds = dict(bounds or {})
        unknown_bounds = [c for c in self.bounds if c not in out_names]
        if unknown_bounds:
            raise CatalogError(
                f"view {name!r}: bounds on unknown columns {unknown_bounds!r}"
            )

    def bounds_for(self, column):
        """See :meth:`AggregateView.bounds_for`."""
        low, high = self.bounds.get(column, (None, None))
        if column == self.count_column:
            low = 0 if low is None else max(low, 0)
        return low, high

    def base_tables(self):
        return (self.left, self.right)

    def declared_keys(self):
        return ((self.left, self.left_pk), (self.right, self.right_pk))

    def has_extremes(self):
        return False

    def counter_columns(self):
        return tuple(a.out for a in self.aggregates)

    def left_fk_of(self, left_row):
        return tuple(left_row[lc] for lc, _ in self.on)

    def relevant(self, joined_row):
        return self.where is None or self.where(joined_row)

    def group_key_of_joined_row(self, joined_row):
        return tuple(joined_row[c] for c in self.group_by)

    def deltas_for_joined(self, joined_row, sign):
        """Counter deltas of one joined row, or None if filtered out."""
        if not self.relevant(joined_row):
            return None
        return {a.out: a.delta_for(joined_row, sign) for a in self.aggregates}

    def zero_row(self, group_key):
        from repro.common.rows import Row

        values = dict(zip(self.group_by, group_key))
        for spec in self.aggregates:
            values[spec.out] = spec.initial_value()
        return Row(values)


class ProjectionView(ViewDefinition):
    """SELECT columns FROM base WHERE p, keyed by the base primary key."""

    kind = "projection"

    def __init__(self, name, base, base_pk, columns, where=None):
        columns = tuple(columns)
        missing = [c for c in base_pk if c not in columns]
        if missing:
            raise CatalogError(
                f"view {name!r}: projected columns must include the base "
                f"primary key {missing!r}"
            )
        super().__init__(name, tuple(base_pk), columns, where)
        self.base = base

    def base_tables(self):
        return (self.base,)

    def declared_keys(self):
        return ((self.base, self.key_columns),)

    def relevant(self, base_row):
        return self.where is None or self.where(base_row)

    def project(self, base_row):
        return base_row.project(self.columns)
