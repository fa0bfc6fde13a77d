package p

func helperInTest() {}
