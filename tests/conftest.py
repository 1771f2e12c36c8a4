import pytest


@pytest.fixture
def record_samples(monkeypatch):
    """``record_samples(module)`` wraps ``module.integrate`` for the test and
    returns the list that a copy of every sampled state is appended to."""

    def install(module):
        states = []
        original = module.integrate

        def integrate(propagator, y0, t_grid, cfg, on_sample=None, **kwargs):
            def record(i, t, y):
                states.append(y.copy())
                on_sample(i, t, y)

            return original(propagator, y0, t_grid, cfg, on_sample=record, **kwargs)

        monkeypatch.setattr(module, "integrate", integrate)
        return states

    return install
