"""Table schemas and the catalog registry.

The catalog is deliberately light: tables declare column names and a
primary key; views (defined in :mod:`repro.views.definition`) register
against their base tables so the maintenance engine can find them. Rows
are validated at the table boundary — deeper layers trust them.
"""

from repro.common import CatalogError


class TableSchema:
    """Declares a table: column names and primary-key columns.

    >>> t = TableSchema("orders", ("id", "customer", "amount"), ("id",))
    >>> t.key_of({"id": 1, "customer": 2, "amount": 30})
    (1,)
    """

    def __init__(self, name, columns, primary_key):
        if not columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        if not primary_key:
            raise CatalogError(f"table {name!r} needs a primary key")
        unknown = [c for c in primary_key if c not in columns]
        if unknown:
            raise CatalogError(
                f"table {name!r}: primary key columns {unknown!r} not in columns"
            )
        if len(set(columns)) != len(columns):
            raise CatalogError(f"table {name!r}: duplicate column names")
        self.name = name
        self.columns = tuple(columns)
        self.primary_key = tuple(primary_key)

    def __repr__(self):
        return f"TableSchema({self.name!r}, pk={self.primary_key!r})"

    def validate_row(self, row):
        """Check that ``row`` has exactly this table's columns."""
        missing = [c for c in self.columns if c not in row]
        if missing:
            raise CatalogError(
                f"row for table {self.name!r} missing columns {missing!r}"
            )
        extra = [c for c in row if c not in self.columns]
        if extra:
            raise CatalogError(
                f"row for table {self.name!r} has unknown columns {extra!r}"
            )

    def key_of(self, row):
        """Extract the primary-key tuple from a row or mapping."""
        return tuple(row[c] for c in self.primary_key)


class Catalog:
    """Registry of tables and views."""

    def __init__(self):
        self._tables = {}
        self._views = {}
        self._views_by_base = {}

    # -- tables ----------------------------------------------------------

    def add_table(self, schema):
        if schema.name in self._tables or schema.name in self._views:
            raise CatalogError(f"name {schema.name!r} already in use")
        self._tables[schema.name] = schema
        return schema

    def table(self, name):
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def has_table(self, name):
        return name in self._tables

    def tables(self):
        return list(self._tables.values())

    # -- views -----------------------------------------------------------

    def add_view(self, view):
        if view.name in self._views or view.name in self._tables:
            raise CatalogError(f"name {view.name!r} already in use")
        for base in view.base_tables():
            if base not in self._tables:
                raise CatalogError(
                    f"view {view.name!r} references unknown table {base!r}"
                )
        for table, declared in view.declared_keys():
            actual = self._tables[table].primary_key
            if tuple(declared) != actual:
                raise CatalogError(
                    f"view {view.name!r} declares primary key {declared!r} "
                    f"for table {table!r}, whose primary key is {actual!r}"
                )
        self._views[view.name] = view
        for base in view.base_tables():
            self._views_by_base.setdefault(base, []).append(view)
        return view

    def view(self, name):
        try:
            return self._views[name]
        except KeyError:
            raise CatalogError(f"no view named {name!r}") from None

    def has_view(self, name):
        return name in self._views

    def drop_view(self, name):
        """Unregister a view (used when an online build vanishes)."""
        view = self._views.pop(name, None)
        if view is None:
            raise CatalogError(f"no view named {name!r}")
        for base in view.base_tables():
            registered = self._views_by_base.get(base)
            if registered and view in registered:
                registered.remove(view)
        return view

    def views(self):
        return list(self._views.values())

    def views_on(self, table_name):
        """Views that must be maintained when ``table_name`` changes."""
        return list(self._views_by_base.get(table_name, ()))
