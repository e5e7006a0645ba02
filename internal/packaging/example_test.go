package packaging_test

import (
	"fmt"

	"vmp/internal/packaging"
)

// ExampleGuidelineLadder builds an HLS-guideline bitrate ladder: a
// floor rung under 192 Kbps and 1.5-2x steps up to the ceiling.
func ExampleGuidelineLadder() {
	ladder := packaging.GuidelineLadder(3000, 1.8)
	fmt.Println(ladder.Bitrates())
	// Output:
	// [150 270 486 875 1575 2834 3000]
}
