"""Learning controllers for the joint power and beam task."""
