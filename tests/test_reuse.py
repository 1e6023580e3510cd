"""What a process builds once and shares: parsed kernels, piece and
lattice tables, continuous and absolute moments, partition residuals and
the engine's period rules.  Shared state is read-only, a value from a
warm cache is the same double as one built fresh, and every cache keyed
by a kernel is bounded."""

import numpy as np
import pytest

from expsample import (
    KernelError,
    OperatorSpec,
    QuadratureConfig,
    absolute_moment,
    continuous_moment,
    discrete_moment,
    durrmeyer_eval,
    function_from_spec,
    parse_kernel,
    poisson_moment,
    verify_kernel,
)
from expsample import kernels, operators
from expsample.cli import main

PSI = "translates:2:a=e^2,b=e^3"
CACHES = (parse_kernel, continuous_moment, absolute_moment,
          kernels._pieces, kernels._weighted_pieces,
          kernels._lattice_polynomials, kernels._partition_residual,
          operators._period_rule)
MOMENT_KERNELS = ["bspline:2", "bspline:4", "bspline:6", "char", PSI]
# the verify pairs of the kernels benchmark
PAIRS = [("bspline:2", "bspline:2"), ("bspline:4", "bspline:2"),
         ("bspline:6", "bspline:4"), ("char", "char"), (PSI, "bspline:2")]
# caches keyed by integer orders alone, never by a kernel
ORDER_KEYED = {"_bspline_pieces", "_spline_moments"}
XS = np.array([1.75, 2.0, 2.1, 3.3])
DEFAULT = ("bspline:4", "bspline:2")
FINER = ("bspline:4", "bspline:2", QuadratureConfig(nodes_per_unit=40))
WS = np.array([10.0, 25.0, 50.0, 400.0])


@pytest.fixture
def cold():
    """Clears every cache, so the next call builds its state fresh."""
    def clear():
        for cache in CACHES:
            cache.cache_clear()
    clear()
    return clear


def _values(chi, phi, cfg=QuadratureConfig()):
    spec = OperatorSpec(parse_kernel(chi), parse_kernel(phi), 1.0,
                        quadrature=cfg)
    f = function_from_spec("name:sinlog")
    return durrmeyer_eval(spec, f, XS[:, None], WS).tobytes()


class TestSharedKernels:
    @pytest.mark.parametrize("descriptor", ["bspline:4", "char", PSI])
    def test_one_kernel_per_descriptor(self, descriptor):
        assert parse_kernel(descriptor) is parse_kernel(descriptor)

    @pytest.mark.parametrize("name", ["eval_log", "support", "terms", "new"])
    def test_read_only(self, name):
        kernel = parse_kernel("bspline:4")
        with pytest.raises(AttributeError, match="read-only"):
            setattr(kernel, name, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(kernel, name)
        assert kernel.support == (-2.0, 2.0)
        assert "eval_log" not in vars(kernel)

    def test_bad_descriptor_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(KernelError, match="unknown kernel descriptor"):
                parse_kernel("bspline")


class TestCachedMoments:
    @pytest.mark.parametrize("descriptor", ["bspline:4", "char", PSI])
    def test_cold_and_warm_agree(self, cold, descriptor):
        fresh = [continuous_moment(parse_kernel(descriptor), nu).hex()
                 for nu in range(6)]
        warm = [continuous_moment(parse_kernel(descriptor), nu).hex()
                for nu in range(6)]
        cold()
        again = [continuous_moment(parse_kernel(descriptor), nu).hex()
                 for nu in range(6)]
        assert fresh == warm == again

    def test_negative_order_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="moment order"):
                continuous_moment(parse_kernel("bspline:2"), -1)

    @pytest.mark.parametrize("descriptor", MOMENT_KERNELS)
    def test_absolute_cold_and_warm_agree(self, cold, descriptor):
        def moments():
            kernel = parse_kernel(descriptor)
            return [absolute_moment(kernel, nu, side).hex()
                    for side in ("discrete", "continuous")
                    for nu in range(5)]

        fresh = moments()
        warm = moments()
        cold()
        assert fresh == warm == moments()

    @pytest.mark.parametrize("chi, phi", PAIRS)
    def test_verify_cold_and_warm_agree(self, cold, chi, phi):
        def reports():
            out = []
            for r in (1, 3):
                report = verify_kernel(parse_kernel(chi), parse_kernel(phi), r)
                out.append([(c.name, c.passed, c.residual.hex())
                            for c in report.conditions()])
            return out

        fresh = reports()
        warm = reports()
        cold()
        assert fresh == warm == reports()

    @pytest.mark.parametrize("side", ["discrete", "continuous"])
    def test_absolute_bad_arguments_raise_every_time(self, side):
        kernel = parse_kernel("bspline:2")
        absolute_moment(kernel, 1, side)  # a warm entry for the kernel
        for _ in range(2):
            with pytest.raises(ValueError, match="moment order"):
                absolute_moment(kernel, -1, side)
            with pytest.raises(ValueError, match="side must be"):
                absolute_moment(kernel, 1, side + "s")

    @pytest.mark.parametrize("moment", [
        lambda kernel, nu: discrete_moment(kernel, nu, 1.5),
        continuous_moment, poisson_moment,
        lambda kernel, nu: absolute_moment(kernel, nu, "discrete"),
        lambda kernel, nu: absolute_moment(kernel, nu, "continuous")],
        ids=["discrete", "continuous", "poisson", "absolute-discrete",
             "absolute-continuous"])
    def test_float_order_raises_whatever_the_caches_hold(self, cold, moment):
        # a cache that keyed 2.0 as 2 would answer once order 2 is cached
        kernel = parse_kernel(PSI)
        with pytest.raises(TypeError):
            moment(kernel, 2.0)
        moment(kernel, 2)
        with pytest.raises(TypeError):
            moment(kernel, 2.0)

    def test_poisson_route_integrates_every_call(self, monkeypatch):
        # the transform route stays an independent check: no cache
        calls = []
        transform = kernels.mellin_transform

        def counted(*args, **kwargs):
            calls.append(args)
            return transform(*args, **kwargs)

        monkeypatch.setattr(kernels, "mellin_transform", counted)
        kernel = parse_kernel(PSI)
        values = [poisson_moment(kernel, 2).hex() for _ in range(3)]
        assert len(calls) == 3 and len(set(values)) == 1


def test_kernel_keyed_caches_are_bounded():
    # a Kernel held by an unbounded cache would outlive parse_kernel's
    # bound of 64 descriptors
    caches = {name: value for module in (kernels, operators)
              for name, value in vars(module).items()
              if hasattr(value, "cache_info")}
    assert {"_pieces", "_weighted_pieces", "_lattice_polynomials",
            "_partition_residual", "absolute_moment", "continuous_moment",
            "_period_rule"} <= set(caches)
    for name, cache in caches.items():
        if name not in ORDER_KEYED:
            assert cache.cache_info().maxsize is not None, name


class TestPeriodRules:
    def test_arrays_are_read_only(self, cold):
        _values("bspline:4", "bspline:2")
        # every scale of the call cuts B2's one cell into one panel of the
        # least 14 points, so this is the engine's own rule
        hits = operators._period_rule.cache_info().hits
        rule = operators._period_rule(parse_kernel("bspline:2"),
                                      ((1,), (14,)))
        assert operators._period_rule.cache_info().hits == hits + 1
        for array in rule:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("first, second", [
        (DEFAULT, FINER), (FINER, DEFAULT),
        (("bspline:4", "bspline:2"), ("bspline:4", "char")),
        (("bspline:4", "char"), ("bspline:4", "bspline:2"))],
        ids=["default-then-finer", "finer-then-default", "b2-then-char",
             "char-then-b2"])
    def test_no_rule_serves_another_key(self, cold, first, second):
        # a rule built for one phi or quadrature config serves no other:
        # each call gives its values from fresh caches
        alone = []
        for args in (first, second):
            cold()
            alone.append(_values(*args))
        cold()
        assert [_values(*first), _values(*second)] == alone

    def test_cold_and_warm_agree(self, cold):
        fresh = [_values(*pair) for pair in (("bspline:4", "bspline:4"),
                                             (PSI, "bspline:2"))]
        warm = [_values(*pair) for pair in (("bspline:4", "bspline:4"),
                                            (PSI, "bspline:2"))]
        assert fresh == warm


INVOCATIONS = [
    ["moments", "--kernel", PSI, "--order", "2", "--route", "continuous"],
    ["verify", "--chi", PSI, "--phi", "bspline:2", "--r", "3"],
    ["rates", "--chi", "bspline:4", "--phi", "bspline:2", "--fn",
     "name:sinlog", "--x", "2", "--w", "50,100,200", "--combine", "p=3",
     "--out", "rates.json"],
    ["table", "--chi", "bspline:4", "--phi", "bspline:2", "--fn",
     "name:fig2", "--x", "1.5,2.25", "--w", "10,20", "--combine", "p=2",
     "--format", "json", "--out", "table.json"],
]


def test_cli_cold_and_warm_agree(cold, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def run():
        out = []
        for argv in INVOCATIONS:
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        return out, [p.read_bytes() for p in sorted(tmp_path.iterdir())]

    first = run()
    assert run() == first
    cold()
    assert run() == first
