package sub

func S() {}
