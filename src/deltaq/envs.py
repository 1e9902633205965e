"""Built-in 10x10 grid games for desk-scale Q-learning experiments.

Both games emit a binary (channels, 10, 10) observation; motion context
travels in the channels (a trail channel marks where the ball/projectiles
were last step), so a single observation is enough for the agent. All
randomness comes from one generator seeded at construction: the same seed
and the same action sequence reproduce the same states, rewards, and
episode boundaries.
"""

from __future__ import annotations

import numpy as np

GRID = 10


class Environment:
    """Minimal episodic interface: reset() -> state, step(a) -> (state,
    reward, done). Concrete games fill in the rules."""

    name: str = ""
    state_shape: tuple[int, int, int] = (0, 0, 0)
    n_actions: int = 0

    def __init__(self, seed: int, max_steps: int = 400):
        self.seed = int(seed)
        self.max_steps = int(max_steps)
        self.rng = np.random.default_rng(self.seed)
        self._done = True

    def fork(self, seed: int) -> "Environment":
        """Same game and limits, independent random stream."""
        return type(self)(seed=seed, max_steps=self.max_steps)

    def reset(self) -> np.ndarray:
        raise NotImplementedError

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        raise NotImplementedError

    def _check_action(self, action: int) -> None:
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} outside [0, {self.n_actions})")
        if self._done:
            raise RuntimeError("episode finished; call reset() first")


class MiniBreakout(Environment):
    """Paddle-and-ball brick breaker.

    Channels: paddle, ball, ball trail, bricks. Actions: 0 stay, 1 left,
    2 right. The ball moves one diagonal cell per step, bounces off walls
    and the paddle, and knocks out bricks (+1 each). The paddle is three
    cells wide (centered on its position, truncated at the walls); a ball
    reaching the paddle row outside it ends the episode. Clearing the wall
    respawns it.
    """

    name = "mini-breakout"
    state_shape = (4, GRID, GRID)
    n_actions = 3

    def reset(self) -> np.ndarray:
        self.paddle_x = GRID // 2
        self.bricks = np.zeros((GRID, GRID), dtype=bool)
        self.bricks[1:4, :] = True
        self._serve()
        self.steps = 0
        self._done = False
        return self._state()

    def _serve(self) -> None:
        self.ball_x = int(self.rng.integers(0, GRID))
        self.ball_y = 4
        self.dx = 1 if self.ball_x == 0 else (-1 if self.ball_x == GRID - 1
                                              else int(self.rng.choice((-1, 1))))
        self.dy = 1
        self.trail_y, self.trail_x = self.ball_y, self.ball_x

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        self._check_action(action)
        reward = 0.0
        if action == 1:
            self.paddle_x = max(0, self.paddle_x - 1)
        elif action == 2:
            self.paddle_x = min(GRID - 1, self.paddle_x + 1)

        self.trail_y, self.trail_x = self.ball_y, self.ball_x
        nx = self.ball_x + self.dx
        if nx < 0 or nx >= GRID:
            self.dx = -self.dx
            nx = self.ball_x + self.dx
        ny = self.ball_y + self.dy
        if ny < 0:
            self.dy = -self.dy
            ny = self.ball_y + self.dy
        if 0 <= ny < GRID and self.bricks[ny, nx]:
            reward += 1.0
            self.bricks[ny, nx] = False
            self.dy = -self.dy
            ny = self.ball_y  # bounce off the brick face, stay in row
            if not self.bricks.any():
                self.bricks[1:4, :] = True
        if ny >= GRID - 1:
            ny = GRID - 1
            if abs(nx - self.paddle_x) <= 1:
                self.dy = -1
                ny = self.ball_y  # caught: bounce without entering paddle row
            else:
                self._done = True
        self.ball_y, self.ball_x = ny, nx

        self.steps += 1
        if self.steps >= self.max_steps:
            self._done = True
        return self._state(), reward, self._done

    def _state(self) -> np.ndarray:
        s = np.zeros(self.state_shape)
        lo = max(0, self.paddle_x - 1)
        s[0, GRID - 1, lo:self.paddle_x + 2] = 1.0
        s[1, self.ball_y, self.ball_x] = 1.0
        s[2, self.trail_y, self.trail_x] = 1.0
        s[3][self.bricks] = 1.0
        return s


class MiniInvaders(Environment):
    """Fixed-cannon alien shooter.

    Channels: cannon, aliens, own shot, enemy shots. Actions: 0 stay,
    1 left, 2 right, 3 fire. The alien block sweeps sideways and descends
    at the walls; one own shot may be in flight at a time (+1 per alien
    hit). An enemy shot reaching the cannon, or an alien reaching the
    cannon row, ends the episode; clearing the wave spawns a new one.
    """

    name = "mini-invaders"
    state_shape = (4, GRID, GRID)
    n_actions = 4

    ALIEN_PERIOD = 2   # alien block moves every other step
    SHOT_PERIOD = 8    # one random alien fires every SHOT_PERIOD steps

    def reset(self) -> np.ndarray:
        self.ship_x = GRID // 2
        self.aliens = np.zeros((GRID, GRID), dtype=bool)
        self._spawn_wave()
        self.own_shot: tuple[int, int] | None = None
        self.enemy_shots: list[list[int]] = []
        self.steps = 0
        self._done = False
        return self._state()

    def _spawn_wave(self) -> None:
        self.aliens[:, :] = False
        self.aliens[1:4, 2:8] = True
        self.alien_dx = 1 if self.rng.random() < 0.5 else -1

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        self._check_action(action)
        reward = 0.0
        if action == 1:
            self.ship_x = max(0, self.ship_x - 1)
        elif action == 2:
            self.ship_x = min(GRID - 1, self.ship_x + 1)
        elif action == 3 and self.own_shot is None:
            self.own_shot = (GRID - 2, self.ship_x)

        # own shot travels up, hits the first alien in its cell
        if self.own_shot is not None:
            y, x = self.own_shot
            y -= 1
            if y < 0:
                self.own_shot = None
            elif self.aliens[y, x]:
                self.aliens[y, x] = False
                reward += 1.0
                self.own_shot = None
            else:
                self.own_shot = (y, x)

        # enemy shots travel down
        kept = []
        for shot in self.enemy_shots:
            shot[0] += 1
            if shot[0] >= GRID:
                continue
            if shot[0] == GRID - 1 and shot[1] == self.ship_x:
                self._done = True
            kept.append(shot)
        self.enemy_shots = kept

        # alien block sweep
        if self.steps % self.ALIEN_PERIOD == 0 and self.aliens.any():
            cols = np.flatnonzero(self.aliens.any(axis=0))
            if (self.alien_dx > 0 and cols[-1] == GRID - 1) or \
               (self.alien_dx < 0 and cols[0] == 0):
                self.aliens = np.roll(self.aliens, 1, axis=0)
                self.alien_dx = -self.alien_dx
                if self.aliens[GRID - 1].any():
                    self._done = True
            else:
                self.aliens = np.roll(self.aliens, self.alien_dx, axis=1)

        # a random alien fires
        if self.steps % self.SHOT_PERIOD == 0 and self.aliens.any():
            ys, xs = np.nonzero(self.aliens)
            # the lowest alien of a random occupied column shoots
            col = int(self.rng.choice(np.unique(xs)))
            row = int(ys[xs == col].max())
            if row + 1 < GRID:
                self.enemy_shots.append([row + 1, col])

        if not self.aliens.any():
            self._spawn_wave()

        self.steps += 1
        if self.steps >= self.max_steps:
            self._done = True
        return self._state(), reward, self._done

    def _state(self) -> np.ndarray:
        s = np.zeros(self.state_shape)
        s[0, GRID - 1, self.ship_x] = 1.0
        s[1][self.aliens] = 1.0
        if self.own_shot is not None:
            s[2, self.own_shot[0], self.own_shot[1]] = 1.0
        for y, x in self.enemy_shots:
            s[3, y, x] = 1.0
        return s


ENVS = {
    MiniBreakout.name: MiniBreakout,
    MiniInvaders.name: MiniInvaders,
}


def make_env(name: str, seed: int, max_steps: int = 400) -> Environment:
    """Build a named environment seeded for reproducible episode streams."""
    if name not in ENVS:
        raise ValueError(
            f"unknown environment {name!r}; choose from {sorted(ENVS)}")
    return ENVS[name](seed=seed, max_steps=max_steps)


def follow_ball_policy(state: np.ndarray) -> int:
    """Hand-coded mini-breakout baseline: chase where the ball is heading.

    The paddle and ball move at the same speed, so tracking the current
    column always lags one cell behind; the trail channel gives the ball's
    direction, and the paddle aims one cell ahead of it.
    """
    cells = np.flatnonzero(state[0, GRID - 1])
    paddle_x = int(round(cells.mean())) if cells.size else GRID // 2
    ball_pos = np.argwhere(state[1])
    if ball_pos.size == 0:
        return 0
    ball_x = int(ball_pos[0][1])
    trail_pos = np.argwhere(state[2])
    dx = ball_x - int(trail_pos[0][1]) if trail_pos.size else 0
    target = min(GRID - 1, max(0, ball_x + dx))
    if target < paddle_x:
        return 1
    if target > paddle_x:
        return 2
    return 0


def run_policy(env: Environment, policy, episodes: int) -> float:
    """Mean episode reward of `policy(state) -> action` over fresh episodes."""
    total = 0.0
    for _ in range(episodes):
        state = env.reset()
        done = False
        while not done:
            state, r, done = env.step(policy(state))
            total += r
    return total / episodes


def random_policy_reward(env: Environment, episodes: int, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    return run_policy(env, lambda s: int(rng.integers(env.n_actions)), episodes)
