"""sql_orders: order entry where every statement is SQL text.

Schema: ``products`` (200 rows, loaded once) and ``sales``, with an
escrow COUNT/SUM view by product and a join-aggregate view by category.
``sales`` is preloaded to 750 rows and kept between 500 and 1000 rows by
balancing inserts against deletes, so it fits the default 64-frame
buffer pool. One client runs transactions of 1-3 point statements by
primary key over Zipf-skewed products (INSERT, UPDATE or DELETE on
``sales``; a SELECT of one view row as a first statement) through
``Database.execute(sql, txn)``; about 10 % end in a planned rollback.
The engine is crashed and recovered after every 50 transactions, so
recovery is measured at eight history lengths.

It is the only workload that goes through ``repro.sql``. A point UPDATE
or DELETE scans the whole table under key-range locks, so this workload
exposes the scan and the cost of uncontended locking.
"""

from repro.api import Database, DeterministicRng, ReproError, ZipfGenerator

import spans
from common import perf_counter, timed_parse

N_PRODUCTS = 200
N_CATEGORIES = 10
PRELOAD = 750
SALES_LOW = 500
SALES_HIGH = 1000
ZIPF_THETA = 0.99
TXNS = 400
RESTARTS = 8
ROLLBACK_SHARE = 0.10
SELECT_SHARE = 0.25

SCHEMA = (
    "CREATE TABLE products (product, name, category, PRIMARY KEY (product));"
    "CREATE TABLE sales (id, product, customer, amount, PRIMARY KEY (id));"
    "CREATE UNIQUE INDEXED VIEW sales_by_product AS "
    "SELECT product, COUNT(*) AS n_sales, SUM(amount) AS revenue "
    "FROM sales GROUP BY product;"
    "CREATE UNIQUE INDEXED VIEW revenue_by_category AS "
    "SELECT category, COUNT(*) AS n_sales, SUM(amount) AS revenue "
    "FROM sales JOIN products ON sales.product = products.product "
    "GROUP BY category"
)


class SalesModel:
    """The client's copy of ``sales``: rows, per-product ids for Zipf
    picks, and per-product COUNT/SUM for checking view reads."""

    def __init__(self):
        self.rows = {}  # id -> (product, customer, amount)
        self.ids = []
        self.by_product = {p: [] for p in range(N_PRODUCTS)}
        self._pos = {}  # id -> (index in ids, index in by_product list)
        self.count = [0] * N_PRODUCTS
        self.revenue = [0] * N_PRODUCTS

    def add(self, sale_id, product, customer, amount):
        self.rows[sale_id] = (product, customer, amount)
        group = self.by_product[product]
        self._pos[sale_id] = [len(self.ids), len(group)]
        self.ids.append(sale_id)
        group.append(sale_id)
        self.count[product] += 1
        self.revenue[product] += amount

    def remove(self, sale_id):
        row = self.rows.pop(sale_id)
        product, _customer, amount = row
        at_ids, at_group = self._pos.pop(sale_id)
        for sequence, at, slot in (
            (self.ids, at_ids, 0), (self.by_product[product], at_group, 1)
        ):
            last = sequence.pop()
            if last != sale_id:
                sequence[at] = last
                self._pos[last][slot] = at
        self.count[product] -= 1
        self.revenue[product] -= amount
        return row

    def set_amount(self, sale_id, amount):
        product, customer, old = self.rows[sale_id]
        self.rows[sale_id] = (product, customer, amount)
        self.revenue[product] += amount - old
        return old

    def revert(self, undo):
        for action in reversed(undo):
            if action[0] == "add":
                self.remove(action[1])
            elif action[0] == "remove":
                self.add(action[1], *action[2])
            else:
                self.set_amount(action[1], action[2])


class SqlOrders:
    """One round: a fresh engine (set up in the constructor) and a fixed
    number of seeded transactions."""

    def __init__(self, seed):
        self.rng = DeterministicRng(seed)
        self.zipf = ZipfGenerator(N_PRODUCTS, ZIPF_THETA, seed=seed + 1)
        self.model = SalesModel()
        self.next_id = 1
        self.db = Database()
        self.db.execute(SCHEMA)
        products = ", ".join(
            f"({p}, 'product-{p}', {p % N_CATEGORIES})"
            for p in range(N_PRODUCTS)
        )
        sales = []
        for _ in range(PRELOAD):
            sales.append("(%d, %d, %d, %d)" % self._new_sale())
        txn = self.db.begin()
        self.db.execute(
            f"INSERT INTO products (product, name, category) VALUES {products}",
            txn,
        )
        self.db.execute(
            "INSERT INTO sales (id, product, customer, amount) VALUES "
            + ", ".join(sales),
            txn,
        )
        self.db.commit(txn)

    def engines(self):
        return [self.db]

    def _new_sale(self):
        sale = (
            self.next_id, self.zipf.draw(),
            self.rng.randint(1, 1000), self.rng.randint(1, 100),
        )
        self.next_id += 1
        self.model.add(*sale)
        return sale

    def _pick_sale(self):
        group = self.model.by_product[self.zipf.draw()]
        pool = group if group else self.model.ids
        return pool[self.rng.randint(0, len(pool) - 1)]

    def _statement(self, position, undo):
        """The next statement's text and its expected result; the model
        already reflects it (``undo`` reverses it)."""
        model = self.model
        if position == 0 and self.rng.random() < SELECT_SHARE:
            product = self.zipf.draw()
            expect = []
            if model.count[product]:
                expect = [{
                    "n_sales": model.count[product],
                    "revenue": model.revenue[product],
                }]
            return (
                "SELECT n_sales, revenue FROM sales_by_product "
                f"WHERE product = {product}",
                expect,
            )
        live = len(model.ids)
        roll = self.rng.random()
        if live <= SALES_LOW or (live < SALES_HIGH and roll < 0.35):
            sale = self._new_sale()
            undo.append(("add", sale[0]))
            return (
                "INSERT INTO sales (id, product, customer, amount) "
                "VALUES (%d, %d, %d, %d)" % sale,
                1,
            )
        sale_id = self._pick_sale()
        if live < SALES_HIGH and roll < 0.65:
            amount = self.rng.randint(1, 100)
            undo.append(("amount", sale_id, model.set_amount(sale_id, amount)))
            return f"UPDATE sales SET amount = {amount} WHERE id = {sale_id}", 1
        undo.append(("remove", sale_id, model.remove(sale_id)))
        return f"DELETE FROM sales WHERE id = {sale_id}", 1

    # ------------------------------------------------------------------

    def run(self, tally, rec=None):
        db = self.db
        if rec is not None:
            spans.install_engine(rec, db)
            before = spans.layer_counters(rec, self.engines())
        aborts = []
        recoveries = []
        restart_every = TXNS // RESTARTS
        for i in range(TXNS):
            tally.probe.tick()
            if rec is not None:
                rec.txn = i
            rollback = self.rng.random() < ROLLBACK_SHARE
            n_statements = self.rng.randint(1, 3)
            undo = []
            tally.attempted += 1
            start = perf_counter()
            txn = db.begin()
            try:
                for position in range(n_statements):
                    text, expect = self._statement(position, undo)
                    timed_parse(rec, text)
                    result = db.execute(text, txn)
                    tally.check(
                        result == expect,
                        f"sql_orders: {text!r} gave {result!r}, "
                        f"expected {expect!r}",
                    )
                if rollback:
                    records = len(db.log)
                    abort_start = perf_counter()
                    db.abort(txn)
                    end = perf_counter()
                    # besides its compensation records, a rollback logs
                    # one ABORT and one END record
                    tally.aborted(
                        aborts, end - abort_start, len(db.log) - records - 2
                    )
                    self.model.revert(undo)
                else:
                    db.commit(txn)
                    end = perf_counter()
                    tally.commit_us.append(1e6 * (end - start))
                    tally.committed += 1
            except ReproError as exc:
                end = perf_counter()
                tally.unplanned("sql_orders", exc)
                if txn.state.value == "active":
                    db.abort(txn)
                self.model.revert(undo)
            tally.txn_seconds += end - start
            if (i + 1) % restart_every == 0:
                start = perf_counter()
                report = db.simulate_crash_and_recover()
                tally.recovered(report, perf_counter() - start, recoveries)
                tally.check(
                    db.check_all_views() == [],
                    "sql_orders: views differ from recomputation after "
                    "recovery",
                )
        tally.abort_us.append(aborts)
        tally.recover_ms.append(recoveries)
        if rec is not None:
            tally.add_counts(spans.delta(
                before, spans.layer_counters(rec, self.engines())
            ))
        self._check_final(tally)

    def _check_final(self, tally):
        db = self.db
        tally.check(db.check_all_views() == [], "sql_orders: views differ")
        txn = db.begin()
        rows = db.execute("SELECT id, product, customer, amount FROM sales", txn)
        by_product = db.execute(
            "SELECT product, n_sales, revenue FROM sales_by_product", txn
        )
        by_category = db.execute(
            "SELECT category, n_sales, revenue FROM revenue_by_category", txn
        )
        db.commit(txn)
        model = self.model
        tally.check(
            {r["id"]: (r["product"], r["customer"], r["amount"]) for r in rows}
            == model.rows,
            "sql_orders: sales table differs from the client's model",
        )
        tally.check(
            {r["product"]: (r["n_sales"], r["revenue"]) for r in by_product}
            == {
                p: (model.count[p], model.revenue[p])
                for p in range(N_PRODUCTS) if model.count[p]
            },
            "sql_orders: sales_by_product differs from the client's model",
        )
        categories = {}
        for p in range(N_PRODUCTS):
            if model.count[p]:
                n, revenue = categories.get(p % N_CATEGORIES, (0, 0))
                categories[p % N_CATEGORIES] = (
                    n + model.count[p], revenue + model.revenue[p]
                )
        tally.check(
            {r["category"]: (r["n_sales"], r["revenue"]) for r in by_category}
            == categories,
            "sql_orders: revenue_by_category differs from the client's model",
        )
