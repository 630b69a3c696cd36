"""Reference implementations that tests check shipping code against."""
