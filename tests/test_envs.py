import numpy as np
import pytest

from deltaq.envs import (follow_ball_policy, make_env,
                         random_policy_reward, run_policy)


@pytest.mark.parametrize("name", ["mini-breakout", "mini-invaders"])
class TestEnvContract:
    def test_same_seed_identical_sequences(self, name):
        e1 = make_env(name, seed=123)
        e2 = make_env(name, seed=123)
        rng = np.random.default_rng(0)
        for _ in range(3):
            s1, s2 = e1.reset(), e2.reset()
            assert np.array_equal(s1, s2)
            done = False
            while not done:
                a = int(rng.integers(e1.n_actions))
                s1, r1, d1 = e1.step(a)
                s2, r2, d2 = e2.step(a)
                assert np.array_equal(s1, s2)
                assert r1 == r2 and d1 == d2
                done = d1

    def test_action_bounds(self, name):
        env = make_env(name, seed=0)
        env.reset()
        with pytest.raises(ValueError):
            env.step(env.n_actions)
        with pytest.raises(ValueError):
            env.step(-1)

    def test_states_are_binary_grids(self, name):
        env = make_env(name, seed=7)
        rng = np.random.default_rng(7)
        s = env.reset()
        assert s.shape == env.state_shape
        for _ in range(50):
            assert set(np.unique(s)).issubset({0.0, 1.0})
            s, r, done = env.step(int(rng.integers(env.n_actions)))
            assert np.isfinite(r)
            if done:
                s = env.reset()

    def test_episode_bounded_by_max_steps(self, name):
        env = make_env(name, seed=3, max_steps=25)
        rng = np.random.default_rng(3)
        for _ in range(5):
            env.reset()
            for n in range(1, 26):
                _, _, done = env.step(int(rng.integers(env.n_actions)))
                if done:
                    break
            assert done and n <= 25

    def test_step_after_done_raises(self, name):
        env = make_env(name, seed=1, max_steps=5)
        env.reset()
        done = False
        while not done:
            _, _, done = env.step(0)
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_fork_gives_independent_stream(self, name):
        env = make_env(name, seed=5)
        env.reset()
        fork = env.fork(99)
        assert type(fork) is type(env)
        assert fork.max_steps == env.max_steps
        fork.reset()  # does not disturb the parent
        env.step(0)


def test_make_env_unknown_name():
    with pytest.raises(ValueError):
        make_env("pong", seed=0)


def test_registry_names_and_action_counts():
    assert make_env("mini-breakout", seed=0).n_actions == 3
    assert make_env("mini-invaders", seed=0).n_actions == 4


def test_random_strictly_below_follow_ball():
    env = make_env("mini-breakout", seed=11)
    hand = run_policy(env.fork(20), follow_ball_policy, 150)
    rand = random_policy_reward(env.fork(21), 150, seed=21)
    assert rand < hand


def test_breakout_brick_rewards_accumulate():
    env = make_env("mini-breakout", seed=42, max_steps=400)
    total = run_policy(env, follow_ball_policy, 50)
    assert total > 0.0


def test_invaders_hits_score():
    env = make_env("mini-invaders", seed=8, max_steps=200)
    # always fire while sitting under the alien block
    def shooter(state):
        ship_x = int(np.argmax(state[0, -1]))
        cols = np.argwhere(state[1])
        if cols.size and state[2].sum() == 0:
            return 3
        if cols.size:
            target = int(np.median(cols[:, 1]))
            if target < ship_x:
                return 1
            if target > ship_x:
                return 2
        return 3
    assert run_policy(env, shooter, 30) > 0.0


@pytest.mark.parametrize("max_steps", [0, -3, 2.5, True, "40"])
def test_bad_max_steps_rejected(max_steps):
    # a cap below 1 would end every episode after its first step
    with pytest.raises(ValueError, match="max_steps"):
        make_env("mini-breakout", 0, max_steps=max_steps)


def test_zero_episodes_rejected():
    env = make_env("mini-breakout", seed=0)
    with pytest.raises(ValueError, match="episodes must be >= 1"):
        run_policy(env, follow_ball_policy, 0)
    with pytest.raises(ValueError, match="episodes must be >= 1"):
        random_policy_reward(env, 0)
