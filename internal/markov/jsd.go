package markov

import "uncharted/internal/stats"

// TokenJSD returns the Jensen–Shannon divergence between the unigram
// token distributions of two chains, in bits ([0, 1]). It measures
// whether a connection still *speaks* the same token mix — the coarse
// half of the drift engine's per-connection comparison.
func TokenJSD(a, b *Chain) float64 {
	return stats.JensenShannon(tokenDist(a), tokenDist(b))
}

// TransitionJSD returns the Jensen–Shannon divergence between the
// joint transition distributions P(from, to) of two chains, in bits
// ([0, 1]). Comparing joint rather than conditional probabilities
// keeps the metric well-defined when the chains have different node
// sets, and weights each transition by how often it actually occurs.
func TransitionJSD(a, b *Chain) float64 {
	return stats.JensenShannon(edgeDist(a), edgeDist(b))
}

func tokenDist(c *Chain) map[string]float64 {
	if c == nil {
		return nil
	}
	out := make(map[string]float64, len(c.nodes))
	for _, nc := range c.nodes {
		out[nc.Token.String()] = float64(nc.Count)
	}
	return out
}

func edgeDist(c *Chain) map[string]float64 {
	if c == nil {
		return nil
	}
	out := make(map[string]float64, len(c.edges))
	for _, ec := range c.edges {
		out[ec.From.String()+" "+ec.To.String()] = float64(ec.Count)
	}
	return out
}
