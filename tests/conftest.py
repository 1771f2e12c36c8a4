import pytest


@pytest.fixture
def record_samples(monkeypatch):
    """``record_samples(module)`` wraps ``module.integrate`` for the test and
    returns the list that a copy of every sampled state is appended to."""

    def install(module):
        states = []
        original = module.integrate

        def integrate(propagator, y0, t_grid, cfg, post_accept, **kwargs):
            def record(start, ys):
                assert start == len(states)
                states.extend(ys.copy())
                post_accept(start, ys)

            return original(propagator, y0, t_grid, cfg, post_accept=record, **kwargs)

        monkeypatch.setattr(module, "integrate", integrate)
        return states

    return install
