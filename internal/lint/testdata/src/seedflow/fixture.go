// Package seedflow is a fixture for the seedflow analyzer.
package seedflow

import (
	"math/rand"
	"time"
)

const defaultSeed = 42

// Config mimics a configuration struct carrying a seed.
type Config struct{ Seed int64 }

func BadTime() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "derives from time.Now"
}

func BadTimeVar() *rand.Rand {
	now := time.Now()
	return rand.New(rand.NewSource(now.UnixNano())) // want "derives from time.Now"
}

func BadLiteral() *rand.Rand {
	return rand.New(rand.NewSource(1234)) // want "bare literal"
}

func BadLiteralLocal() *rand.Rand {
	seed := int64(5678)
	return rand.New(rand.NewSource(seed)) // want "bare literal"
}

func GoodParam(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func GoodConfig(cfg Config) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed + 1))
}

func GoodConst() *rand.Rand {
	return rand.New(rand.NewSource(defaultSeed))
}

func GoodDerivedLocal(cfg Config) *rand.Rand {
	seed := cfg.Seed*2 + 1
	return rand.New(rand.NewSource(seed))
}

func LiteralConfigField() Config {
	return Config{Seed: 7} // a literal Seed field is configuration: no report
}

func Suppressed() *rand.Rand {
	//lint:ignore seedflow fixture exercises suppression
	return rand.New(rand.NewSource(99))
}
