"""Sessions: the connection-like convenience layer.

A :class:`Session` binds a :class:`~repro.core.database.Database` with an
implicit *current transaction*, so application code reads like SQL client
code instead of threading a txn handle through every call::

    session = db.session()
    session.begin()
    session.insert("sales", {"id": 1, "product": "ant", "amount": 3})
    session.commit()

    # or autocommit: each statement is its own transaction
    session.insert("sales", {"id": 2, "product": "bee", "amount": 5})

Outside an explicit ``begin()``, every statement runs in **autocommit**
mode (its own transaction, committed on success, aborted on failure) —
the same default as every SQL client library.
"""

from repro.common import SimulatedCrash, TransactionStateError
from repro.txn.transaction import LockPolicy, TxnState


class Session:
    """One client's connection to the engine."""

    def __init__(self, db, isolation="serializable", policy=LockPolicy.NOWAIT):
        self._db = db
        self.isolation = isolation
        self.policy = policy
        self._txn = None

    def __repr__(self):
        state = self._txn.state.value if self._txn is not None else "idle"
        return f"Session({state}, isolation={self.isolation})"

    # ------------------------------------------------------------------
    # transaction control
    # ------------------------------------------------------------------

    @property
    def current_transaction(self):
        return self._txn

    def in_transaction(self):
        return self._txn is not None and self._txn.state is TxnState.ACTIVE

    def begin(self):
        """Start an explicit transaction (error if one is open)."""
        if self.in_transaction():
            raise TransactionStateError("session already has an open transaction")
        self._txn = self._db.begin(
            policy=self.policy, isolation=self.isolation
        )
        return self._txn

    def commit(self):
        if not self.in_transaction():
            raise TransactionStateError("no open transaction to commit")
        txn = self._txn
        try:
            return self._db.commit(txn)
        except SimulatedCrash:
            raise  # nothing is running any more; recovery will resolve it
        except BaseException:
            # A failed commit (e.g. an injected fault while folding view
            # deltas) must not leave the transaction holding locks while
            # the session believes it is idle.
            if txn.state is TxnState.ACTIVE:
                self._db.abort(txn, reason="commit failed")
            raise
        finally:
            self._txn = None

    def rollback(self):
        if not self.in_transaction():
            raise TransactionStateError("no open transaction to roll back")
        try:
            self._db.abort(self._txn)
        finally:
            self._txn = None

    def savepoint(self):
        if not self.in_transaction():
            raise TransactionStateError("savepoints need an open transaction")
        return self._db.savepoint(self._txn)

    def rollback_to(self, savepoint):
        if not self.in_transaction():
            raise TransactionStateError("no open transaction")
        self._db.rollback_to(self._txn, savepoint)

    # ------------------------------------------------------------------
    # statements (explicit-txn or autocommit)
    # ------------------------------------------------------------------

    def run(self, fn, retries=3):
        """Run ``fn(session)`` in one transaction with automatic retry on
        deadlock / lock timeout / injected fault, via
        :meth:`Database.run_transaction`. The session's current
        transaction is set for the duration of each attempt, so ``fn``
        uses plain session statements::

            session.run(lambda s: s.update("acct", (1,), {"bal": 0}))
        """
        if self.in_transaction():
            raise TransactionStateError(
                "run() manages its own transaction; commit or roll back first"
            )

        def body(txn):
            self._txn = txn
            return fn(self)

        try:
            return self._db.run_transaction(
                body, retries=retries, policy=self.policy,
                isolation=self.isolation,
            )
        finally:
            self._txn = None

    def _run(self, fn):
        if self.in_transaction():
            return fn(self._txn)
        txn = self._db.begin(policy=self.policy, isolation=self.isolation)
        try:
            result = fn(txn)
            self._db.commit(txn)
            return result
        except SimulatedCrash:
            raise
        except BaseException:
            if txn.state is TxnState.ACTIVE:
                self._db.abort(txn)
            raise

    def execute(self, sql):
        """Execute SQL in this session through :meth:`Database.execute`:
        inside the current transaction when one is open, autocommit
        otherwise with the session's policy and isolation (DDL always
        runs outside any transaction)."""
        return self._db.execute(
            sql, self._txn if self.in_transaction() else None,
            _policy=self.policy, _isolation=self.isolation,
        )

    def insert(self, table, values):
        return self._run(lambda txn: self._db.insert(txn, table, values))

    def update(self, table, key, changes):
        return self._run(lambda txn: self._db.update(txn, table, key, changes))

    def delete(self, table, key):
        return self._run(lambda txn: self._db.delete(txn, table, key))

    def read(self, name, key, for_update=False):
        return self._run(
            lambda txn: self._db.read(txn, name, key, for_update=for_update)
        )

    def read_exact(self, name, key):
        return self._run(lambda txn: self._db.read_exact(txn, name, key))

    def scan(self, name, key_range=None):
        return self._run(lambda txn: self._db.scan(txn, name, key_range))

    def lookup(self, table, index_name, values):
        return self._run(
            lambda txn: self._db.lookup(txn, table, index_name, values)
        )
