"""Backend registry semantics: registration, kinds, builtin protocols."""

from __future__ import annotations

import pytest

from repro.savanna import (
    available_backends,
    backend_descriptions,
    backend_kind,
    create_executor,
    get_backend,
    register_backend,
    unregister_backend,
)


class FakeExecutor:
    pool_kind = "fake"


class TestRegistration:
    def test_register_and_create(self):
        register_backend("fake", lambda **kw: FakeExecutor(), description="test-only")
        try:
            assert "fake" in available_backends()
            assert isinstance(create_executor("fake"), FakeExecutor)
            assert backend_descriptions()["fake"] == "test-only"
            assert backend_kind("fake") == "simulated"
        finally:
            unregister_backend("fake")
        assert "fake" not in available_backends()

    def test_duplicate_registration_rejected(self):
        register_backend("fake", lambda **kw: FakeExecutor())
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_backend("fake", lambda **kw: FakeExecutor())
        finally:
            unregister_backend("fake")

    def test_replace_true_overwrites(self):
        register_backend("fake", lambda **kw: "first")
        try:
            register_backend("fake", lambda **kw: "second", replace=True)
            assert create_executor("fake") == "second"
        finally:
            unregister_backend("fake")

    def test_builtins_cannot_be_shadowed_silently(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("pilot", lambda **kw: FakeExecutor())

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            register_backend("fake", lambda **kw: FakeExecutor(), kind="quantum")
        assert "fake" not in available_backends()

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError):
            unregister_backend("never-registered")


class TestLookup:
    def test_unknown_backend_message_lists_available(self):
        with pytest.raises(KeyError) as excinfo:
            get_backend("slurm")
        message = str(excinfo.value)
        for name in available_backends():
            assert name in message

    def test_backend_kind_unknown_name(self):
        with pytest.raises(KeyError, match="slurm"):
            backend_kind("slurm")


class TestBuiltins:
    def test_expected_builtins_present(self):
        names = set(available_backends())
        assert {"pilot", "static-sets", "local-threads", "local-processes"} <= names

    def test_builtin_kinds(self):
        assert backend_kind("pilot") == "simulated"
        assert backend_kind("static-sets") == "simulated"
        assert backend_kind("local-threads") == "real"
        assert backend_kind("local-processes") == "real"

    def test_real_builtins_satisfy_real_protocol(self):
        for name in ("local-threads", "local-processes"):
            ex = create_executor(name, max_workers=2)
            assert callable(getattr(ex, "execute"))
            assert not hasattr(ex, "run")  # one entry point: execute

    def test_real_builtins_pool_choice(self):
        assert create_executor("local-threads").pool == "threads"
        assert create_executor("local-processes").pool == "processes"

    def test_simulated_builtins_satisfy_simulated_protocol(self):
        from conftest import make_cluster

        for name in ("pilot", "static-sets"):
            ex = create_executor(name, cluster=make_cluster(nodes=2))
            assert callable(getattr(ex, "make_run"))
            assert callable(getattr(ex, "run"))
            assert not hasattr(ex, "execute")
